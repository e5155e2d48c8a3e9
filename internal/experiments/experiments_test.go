package experiments

import (
	"strings"
	"testing"

	"stfm/internal/core"
	"stfm/internal/sim"
	"stfm/internal/store"
	"stfm/internal/trace"
	"stfm/internal/workloads"
)

func TestProfilesResolution(t *testing.T) {
	profs, err := Profiles("mcf", "dealII")
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 2 || profs[0].Name != "mcf" {
		t.Errorf("unexpected profiles %v", profs)
	}
	if _, err := Profiles("mcf", "nonesuch"); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestAloneCaching(t *testing.T) {
	r := NewRunner(Options{InstrTarget: 20_000, Seed: 1})
	p, err := Profiles("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Alone(p[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Alone(p[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached alone run must be identical")
	}
	// A different channel count is a different baseline.
	c, err := r.Alone(p[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.MCPI == a.MCPI && c.Cycles == a.Cycles {
		t.Error("2-channel baseline should differ from 1-channel")
	}
}

// TestRunWorkloadCacheModeAlone: a cache-mode shared run is divided by
// cache-mode alone runs. Each AloneMCPI RunWorkload reports must equal
// a direct 1-core FR-FCFS UseCaches run of the same benchmark, not the
// direct-mode (miss-stream) baseline Options alone would describe.
func TestRunWorkloadCacheModeAlone(t *testing.T) {
	opts := Options{InstrTarget: 20_000, Seed: 1}
	r := NewRunner(opts)
	profs, err := Profiles("mcf", "libquantum")
	if err != nil {
		t.Fatal(err)
	}
	wr, err := r.RunWorkload(sim.PolicySTFM, profs, func(c *sim.Config) { c.UseCaches = true })
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profs {
		cfg := sim.DefaultConfig(sim.PolicyFRFCFS, 1)
		cfg.InstrTarget = opts.InstrTarget
		cfg.Seed = opts.Seed
		cfg.Channels = sim.ChannelsFor(len(profs))
		cfg.UseCaches = true
		alone, err := sim.Run(cfg, []trace.Profile{p})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := wr.AloneMCPI[i], alone.Threads[0].MCPI; got != want {
			t.Errorf("%s: AloneMCPI = %v, want the cache-mode alone run's %v", p.Name, got, want)
		}
	}
}

// TestAloneKeyIgnoresPolicyMutate pins the alone-baseline keys of a nil
// or scheduler-only mutate to the keys Alone computes, as golden
// digests: a store primed through Alone (a matrix set-up phase) or
// spilled to a -baseline-dir by an earlier build keeps serving those
// cells. A machine mutate must move the key.
func TestAloneKeyIgnoresPolicyMutate(t *testing.T) {
	r := NewRunner(Options{InstrTarget: 20_000, MinMisses: 150, Seed: 1})
	golden := map[int]string{
		1: "ba8faa3556227e4a20e28866a4a0db9a2a0ff0f67298b080dffc2f8359958823",
		2: "d97ee248b458779f18ba2c59c805a946c2b877857e00946be932bb71f3c89112",
	}
	aloneKey := func(cfg sim.Config) string { return store.Key(cfg, []string{"mcf"}) }
	mutates := map[string]func(*sim.Config){
		"nil": nil,
		"STFM alpha": func(c *sim.Config) {
			c.STFM = core.DefaultConfig()
			c.STFM.Alpha = 2
		},
		"NFQWeights": func(c *sim.Config) { c.NFQWeights = []float64{1, 4} },
	}
	for ch, want := range golden {
		if got := aloneKey(r.aloneConfig(ch)); got != want {
			t.Errorf("Alone key (%d channels) = %s, want %s", ch, got, want)
		}
		for name, mutate := range mutates {
			shared := r.baseConfig(sim.PolicySTFM, 2)
			if mutate != nil {
				mutate(&shared)
			}
			if got := aloneKey(r.aloneConfigFor(shared, ch)); got != want {
				t.Errorf("%s mutate: alone key (%d channels) = %s, want %s", name, ch, got, want)
			}
		}
		shared := r.baseConfig(sim.PolicySTFM, 2)
		shared.UseCaches = true
		if aloneKey(r.aloneConfigFor(shared, ch)) == want {
			t.Errorf("UseCaches mutate kept the direct-mode alone key (%d channels)", ch)
		}
	}
}

func TestRunWorkloadMetricsConsistent(t *testing.T) {
	r := NewRunner(Options{InstrTarget: 30_000, Seed: 1})
	profs, _ := Profiles("mcf", "libquantum")
	wr, err := r.RunWorkload(sim.PolicyFRFCFS, profs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.Slowdowns) != 2 || len(wr.AloneMCPI) != 2 {
		t.Fatal("missing per-thread outputs")
	}
	if wr.Unfairness < 1 {
		t.Errorf("unfairness %v < 1", wr.Unfairness)
	}
	// Unfairness must equal max/min of the reported slowdowns.
	lo, hi := wr.Slowdowns[0], wr.Slowdowns[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if got := hi / lo; got != wr.Unfairness {
		t.Errorf("unfairness %v != max/min %v", wr.Unfairness, got)
	}
}

func TestRunAllPoliciesCount(t *testing.T) {
	r := NewRunner(Options{InstrTarget: 15_000, Seed: 1})
	profs, _ := Profiles("hmmer", "h264ref")
	out, err := r.RunAllPolicies(profs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Errorf("got %d policies", len(out))
	}
}

func TestSubsample(t *testing.T) {
	mixes := workloads.FourCoreMixes()
	sub := subsample(mixes, 16)
	if len(sub) != 16 {
		t.Fatalf("got %d", len(sub))
	}
	if sub[0].Name != mixes[0].Name {
		t.Error("subsample should keep the first mix")
	}
	if got := subsample(mixes, 1000); len(got) != len(mixes) {
		t.Error("oversampling should return everything")
	}
}

func TestEqualPriorityUnfairness(t *testing.T) {
	// Threads 0,2,3 share weight 1; thread 1 has weight 16.
	slow := []float64{2.0, 1.1, 4.0, 2.0}
	w := []float64{1, 16, 1, 1}
	if got := equalPriorityUnfairness(slow, w); got != 2.0 {
		t.Errorf("equal-priority unfairness = %v, want 2.0 (4.0/2.0)", got)
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All(false)
	if len(all) != 17 {
		t.Errorf("registry has %d experiments, want 17 (14 paper artifacts + extension + 2 diagnostics)", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Errorf("malformed experiment %+v", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table3", "fig1", "fig5", "fig6", "fig9", "fig12", "fig14", "fig15", "table5"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, err := ByID("fig6", false); err != nil {
		t.Error(err)
	}
	if _, err := ByID("fig99", false); err == nil {
		t.Error("unknown id must error")
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{ID: "x", Title: "y"}
	rep.addf("line %d", 1)
	s := rep.String()
	if !strings.Contains(s, "== x: y ==") || !strings.Contains(s, "line 1") {
		t.Errorf("bad report rendering:\n%s", s)
	}
}

// TestAllExperimentsRun executes every registered experiment end to
// end at a tiny scale — the complete reproduction pipeline, minus
// statistical weight.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is not short")
	}
	for _, e := range All(false) {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := NewRunner(Options{InstrTarget: 8_000, MinMisses: 30, Seed: 1})
			rep, err := e.Run(r)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(rep.Lines) == 0 {
				t.Errorf("%s produced an empty report", e.ID)
			}
			if rep.ID != e.ID {
				t.Errorf("report id %q != experiment id %q", rep.ID, e.ID)
			}
		})
	}
}
