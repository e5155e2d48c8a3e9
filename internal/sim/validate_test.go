package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"stfm/internal/dram"
	"stfm/internal/trace"
)

// TestValidateAcceptsDefaults: every configuration NewSystem would
// default into shape must pass, including the zero Config.
func TestValidateAcceptsDefaults(t *testing.T) {
	cases := []Config{
		{},
		DefaultConfig(PolicySTFM, 4),
		DefaultConfig(PolicyFRFCFS, 2),
		{Policy: PolicyNFQ, NFQWeights: []float64{1, 2, 4}},
		{Timing: func() *dram.Timing { tm := dram.DefaultTiming(); return &tm }()},
		// Channels 0 in an explicit geometry is legal: NewSystem
		// overrides it with the workload-scaled count.
		{Geometry: func() *dram.Geometry { g := dram.DefaultGeometry(0); return &g }()},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err != nil {
			t.Errorf("case %d: Validate() = %v, want nil", i, err)
		}
	}
}

// TestValidateRejections pins one structured rejection per rule: the
// error unwraps to a *ConfigError naming the offending field.
func TestValidateRejections(t *testing.T) {
	mut := func(f func(*Config)) Config {
		cfg := DefaultConfig(PolicySTFM, 2)
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"unknown policy", mut(func(c *Config) { c.Policy = "LRU" }), "Policy"},
		{"unknown protocol", mut(func(c *Config) { c.Protocol = "DDR9" }), "Protocol"},
		{"negative channels", mut(func(c *Config) { c.Channels = -1 }), "Channels"},
		{"negative instr target", mut(func(c *Config) { c.InstrTarget = -5 }), "InstrTarget"},
		{"negative min misses", mut(func(c *Config) { c.MinMisses = -1 }), "MinMisses"},
		{"negative max cycles", mut(func(c *Config) { c.MaxCycles = -1 }), "MaxCycles"},
		{"negative mshrs", mut(func(c *Config) { c.MSHRs = -2 }), "MSHRs"},
		{"negative cap", mut(func(c *Config) { c.CapValue = -4 }), "CapValue"},
		{"negative width", mut(func(c *Config) { c.CoreCfg.Width = -3 }), "CoreCfg.Width"},
		{"negative window", mut(func(c *Config) { c.CoreCfg.WindowSize = -128 }), "CoreCfg.WindowSize"},
		{"broken geometry", mut(func(c *Config) {
			g := dram.DefaultGeometry(1)
			g.BanksPerChannel = -8
			c.Geometry = &g
		}), "Geometry"},
		{"128 banks", mut(func(c *Config) {
			g := dram.DefaultGeometry(1)
			g.BanksPerChannel = 128
			c.Geometry = &g
		}), "Geometry"},
		{"broken timing", mut(func(c *Config) {
			tm := dram.DefaultTiming()
			tm.CL = 0
			c.Timing = &tm
		}), "Timing"},
		{"zero nfq weight", mut(func(c *Config) { c.NFQWeights = []float64{1, 0} }), "NFQWeights"},
		{"nan nfq weight", mut(func(c *Config) { c.NFQWeights = []float64{math.NaN()} }), "NFQWeights"},
		{"inf nfq weight", mut(func(c *Config) { c.NFQWeights = []float64{math.Inf(1)} }), "NFQWeights"},
		{"alpha below one", mut(func(c *Config) { c.STFM.Alpha = 0.5 }), "STFM.Alpha"},
		{"nan alpha", mut(func(c *Config) { c.STFM.Alpha = math.NaN() }), "STFM.Alpha"},
		{"negative interval", mut(func(c *Config) { c.STFM.IntervalLength = -1 }), "STFM.IntervalLength"},
		{"negative gamma", mut(func(c *Config) { c.STFM.Gamma = -0.5 }), "STFM.Gamma"},
		{"negative stfm weight", mut(func(c *Config) { c.STFM.Weights = []float64{1, -1} }), "STFM.Weights"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v does not unwrap to *ConfigError", err)
			}
			found := false
			for uerr := err; !found; {
				joined, ok := uerr.(interface{ Unwrap() []error })
				if !ok {
					break
				}
				for _, e := range joined.Unwrap() {
					var c *ConfigError
					if errors.As(e, &c) && c.Field == tc.field {
						found = true
					}
				}
				break
			}
			if !found {
				// Single-violation configs: errors.Join of one error
				// returns it directly.
				if ce.Field != tc.field {
					t.Fatalf("ConfigError.Field = %q, want %q (err: %v)", ce.Field, tc.field, err)
				}
			}
			if !strings.Contains(err.Error(), "Config."+tc.field) {
				t.Errorf("error text %q does not name Config.%s", err, tc.field)
			}
		})
	}
}

// TestValidateJoinsAllViolations: a config broken in several ways
// reports every problem at once, not just the first.
func TestValidateJoinsAllViolations(t *testing.T) {
	cfg := Config{Policy: "bogus", Channels: -1, MSHRs: -1}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate() = nil, want error")
	}
	for _, field := range []string{"Policy", "Channels", "MSHRs"} {
		if !strings.Contains(err.Error(), "Config."+field) {
			t.Errorf("joined error %q missing Config.%s", err, field)
		}
	}
}

// TestNewSystemRejectsInvalidConfig: construction fails fast with the
// structured validation error instead of panicking downstream.
func TestNewSystemRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig("no-such-policy", 2)
	profs, err := twoProfiles()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewSystem(cfg, profs)
	if err == nil {
		t.Fatal("NewSystem accepted an invalid config")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Policy" {
		t.Fatalf("NewSystem error %v, want *ConfigError on Policy", err)
	}
}

func twoProfiles() ([]trace.Profile, error) {
	a, err := trace.ByName("mcf")
	if err != nil {
		return nil, err
	}
	b, err := trace.ByName("libquantum")
	if err != nil {
		return nil, err
	}
	return []trace.Profile{a, b}, nil
}
