package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"stfm/internal/dram"
)

// ConfigError reports one invalid Config field. Validate joins one
// ConfigError per violation so callers can render every problem at
// once (the stfm-server API turns the joined error into a single 400
// body listing all of them); errors.As extracts the first.
type ConfigError struct {
	// Field names the offending Config field (dotted for nested
	// fields, e.g. "STFM.Alpha").
	Field string
	// Reason describes the violation.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid Config.%s: %s", e.Field, e.Reason)
}

// Validate checks the configuration for nonsensical values — unknown
// policies, negative budgets and counts, broken DRAM geometry or
// timing, non-positive weights — and returns all violations joined, or
// nil. Zero values that NewSystem defaults (InstrTarget, MSHRs,
// Channels, CoreCfg, STFM, CapValue) are valid here; Validate rejects
// only states no defaulting can repair. NewSystem calls it on entry so
// a bad configuration fails fast with a structured error instead of
// panicking deep inside construction; the stfm-server calls it at
// submission time to turn the same mistakes into HTTP 400s.
func (cfg Config) Validate() error {
	var errs []error
	bad := func(field, format string, args ...any) {
		errs = append(errs, &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}

	known := ExtendedPolicies()
	if cfg.Policy != "" && !slices.Contains(known, cfg.Policy) {
		bad("Policy", "unknown policy %q (known: %v)", cfg.Policy, known)
	}
	if cfg.Protocol != "" && !cfg.Protocol.Known() {
		bad("Protocol", "unknown protocol %q (known: %v)", cfg.Protocol, dram.Protocols())
	}
	if cfg.ForkAtCycle < 0 {
		bad("ForkAtCycle", "must be non-negative, got %d", cfg.ForkAtCycle)
	}
	if cfg.WarmupPolicy != "" && !slices.Contains(known, cfg.WarmupPolicy) {
		bad("WarmupPolicy", "unknown policy %q (known: %v)", cfg.WarmupPolicy, known)
	}
	if cfg.WarmupPolicy != "" && cfg.ForkAtCycle <= 0 {
		bad("WarmupPolicy", "set without ForkAtCycle > 0: the warm-up scheduler only runs before a fork switch")
	}
	if cfg.Channels < 0 {
		bad("Channels", "must be non-negative, got %d", cfg.Channels)
	}
	if cfg.InstrTarget < 0 {
		bad("InstrTarget", "must be non-negative, got %d", cfg.InstrTarget)
	}
	if cfg.MinMisses < 0 {
		bad("MinMisses", "must be non-negative, got %d", cfg.MinMisses)
	}
	if cfg.MaxCycles < 0 {
		bad("MaxCycles", "must be non-negative, got %d", cfg.MaxCycles)
	}
	if cfg.MSHRs < 0 {
		bad("MSHRs", "must be non-negative, got %d", cfg.MSHRs)
	}
	if cfg.CapValue < 0 {
		bad("CapValue", "must be non-negative, got %d", cfg.CapValue)
	}
	if cfg.CoreCfg.Width < 0 {
		bad("CoreCfg.Width", "must be non-negative, got %d", cfg.CoreCfg.Width)
	}
	if cfg.CoreCfg.WindowSize < 0 {
		bad("CoreCfg.WindowSize", "must be non-negative, got %d", cfg.CoreCfg.WindowSize)
	}
	if g := cfg.Geometry; g != nil {
		// NewSystem overrides the geometry's channel count with the
		// workload-scaled value, so a zero Channels here is fine;
		// validate the rest with a stand-in.
		gv := *g
		if gv.Channels == 0 {
			gv.Channels = 1
		}
		if err := gv.Validate(); err != nil {
			bad("Geometry", "%v", err)
		}
	}
	if t := cfg.Timing; t != nil {
		if err := t.Validate(); err != nil {
			bad("Timing", "%v", err)
		}
	}
	for i, w := range cfg.NFQWeights {
		if !(w > 0) || math.IsInf(w, 0) {
			bad("NFQWeights", "weight %d must be positive and finite, got %v", i, w)
		}
	}
	if a := cfg.STFM.Alpha; a != 0 && (a < 1 || math.IsNaN(a)) {
		bad("STFM.Alpha", "must be >= 1 (0 selects the paper default), got %v", a)
	}
	if cfg.STFM.IntervalLength < 0 {
		bad("STFM.IntervalLength", "must be non-negative, got %d", cfg.STFM.IntervalLength)
	}
	if gm := cfg.STFM.Gamma; gm < 0 || math.IsNaN(gm) {
		bad("STFM.Gamma", "must be non-negative, got %v", gm)
	}
	for i, w := range cfg.STFM.Weights {
		if !(w > 0) || math.IsInf(w, 0) {
			bad("STFM.Weights", "weight %d must be positive and finite, got %v", i, w)
		}
	}
	return errors.Join(errs...)
}
