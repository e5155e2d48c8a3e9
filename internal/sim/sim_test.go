package sim

import (
	"math"
	"reflect"
	"testing"

	"stfm/internal/core"
	"stfm/internal/trace"
)

func TestChannelsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 4: 1, 8: 2, 16: 4, 12: 4}
	for cores, want := range cases {
		if got := ChannelsFor(cores); got != want {
			t.Errorf("ChannelsFor(%d) = %d, want %d", cores, got, want)
		}
	}
}

func TestAllPolicies(t *testing.T) {
	pols := AllPolicies()
	if len(pols) != 5 {
		t.Fatalf("got %d policies", len(pols))
	}
	if pols[0] != PolicyFRFCFS || pols[4] != PolicySTFM {
		t.Error("paper ordering expected: FR-FCFS first, STFM last")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(DefaultConfig(PolicyFRFCFS, 0), nil); err == nil {
		t.Error("empty workload must fail")
	}
	cfg := DefaultConfig("bogus", 2)
	if _, err := Run(cfg, profilesByName(t, "mcf", "hmmer")); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig(PolicySTFM, 2)
	cfg.InstrTarget = 30_000
	a, err := Run(cfg, profilesByName(t, "mcf", "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, profilesByName(t, "mcf", "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Threads {
		if a.Threads[i] != b.Threads[i] {
			t.Errorf("run not deterministic for thread %d:\n%+v\n%+v", i, a.Threads[i], b.Threads[i])
		}
	}
	if a.TotalCycles != b.TotalCycles {
		t.Error("total cycles differ between identical runs")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 2)
	cfg.InstrTarget = 30_000
	a, _ := Run(cfg, profilesByName(t, "mcf", "libquantum"))
	cfg.Seed = 99
	b, _ := Run(cfg, profilesByName(t, "mcf", "libquantum"))
	if a.TotalCycles == b.TotalCycles {
		t.Error("different seeds should perturb the run")
	}
}

func TestPoliciesDiffer(t *testing.T) {
	profs := profilesByName(t, "mcf", "libquantum", "GemsFDTD", "astar")
	results := map[PolicyKind]int64{}
	for _, pol := range AllPolicies() {
		cfg := DefaultConfig(pol, 4)
		cfg.InstrTarget = 40_000
		res, err := Run(cfg, profs)
		if err != nil {
			t.Fatal(err)
		}
		results[pol] = res.TotalCycles
	}
	distinct := map[int64]bool{}
	for _, v := range results {
		distinct[v] = true
	}
	if len(distinct) < 3 {
		t.Errorf("policies are suspiciously identical: %v", results)
	}
}

func TestMaxCyclesTruncates(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 1)
	cfg.InstrTarget = 10_000_000
	cfg.MaxCycles = 50_000
	res, err := Run(cfg, profilesByName(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Threads[0].Truncated {
		t.Error("run must be marked truncated")
	}
	if res.TotalCycles > cfg.MaxCycles {
		t.Errorf("ran %d cycles past the cap %d", res.TotalCycles, cfg.MaxCycles)
	}
}

func TestCacheModeRuns(t *testing.T) {
	cfg := DefaultConfig(PolicySTFM, 2)
	cfg.InstrTarget = 30_000
	cfg.UseCaches = true
	res, err := Run(cfg, profilesByName(t, "mcf", "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range res.Threads {
		if th.Truncated {
			t.Errorf("%s truncated in cache mode", th.Benchmark)
		}
		if th.IPC <= 0 {
			t.Errorf("%s has zero IPC", th.Benchmark)
		}
	}
	// In cache mode the same addresses recur across row runs, so the
	// DRAM read count must be well below the miss-stream count.
	if res.Threads[0].DRAMReads <= 0 {
		t.Error("cache mode produced no DRAM traffic")
	}
}

func TestSTFMDiagnosticsExposed(t *testing.T) {
	cfg := DefaultConfig(PolicySTFM, 2)
	cfg.InstrTarget = 30_000
	sys, err := NewSystem(cfg, profilesByName(t, "mcf", "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	if sys.STFM() == nil {
		t.Fatal("STFM accessor should be non-nil for the STFM policy")
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.STFMUnfairness <= 0 {
		t.Error("STFM unfairness diagnostic missing")
	}
	// Non-STFM systems expose no STFM.
	sys2, _ := NewSystem(DefaultConfig(PolicyNFQ, 2), profilesByName(t, "mcf", "libquantum"))
	if sys2.STFM() != nil {
		t.Error("NFQ system must not expose STFM")
	}
}

func TestMSHRLimitRespected(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 1)
	cfg.InstrTarget = 20_000
	cfg.MSHRs = 1
	res1, err := Run(cfg, profilesByName(t, "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.MSHRs = 64
	res64, err := Run(cfg, profilesByName(t, "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Threads[0].IPC >= res64.Threads[0].IPC {
		t.Error("a single MSHR must hurt a streaming benchmark")
	}
}

func TestPARBSRuns(t *testing.T) {
	cfg := DefaultConfig(PolicyPARBS, 4)
	cfg.InstrTarget = 40_000
	res, err := Run(cfg, profilesByName(t, "mcf", "libquantum", "GemsFDTD", "astar"))
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range res.Threads {
		if th.Truncated || th.IPC <= 0 {
			t.Errorf("%s: truncated=%v ipc=%v", th.Benchmark, th.Truncated, th.IPC)
		}
	}
	// PAR-BS's batch cap bounds starvation: the most intensive thread
	// must not be starved to a crawl.
	if res.Threads[0].MCPI > 100 {
		t.Errorf("mcf MCPI %v suggests starvation under PAR-BS", res.Threads[0].MCPI)
	}
}

// TestSymmetricWorkloadEqualSlowdowns: two identical threads must see
// near-identical performance under every policy (a fairness sanity
// invariant independent of the slowdown estimator).
func TestSymmetricWorkloadEqualSlowdowns(t *testing.T) {
	for _, pol := range append(AllPolicies(), PolicyPARBS) {
		cfg := DefaultConfig(pol, 2)
		cfg.InstrTarget = 60_000
		res, err := Run(cfg, profilesByName(t, "mcf", "mcf"))
		if err != nil {
			t.Fatal(err)
		}
		a, b := res.Threads[0].MCPI, res.Threads[1].MCPI
		if math.Abs(a-b)/math.Max(a, b) > 0.12 {
			t.Errorf("%s: symmetric threads diverged: MCPI %v vs %v", pol, a, b)
		}
	}
}

// TestSTFMReducesUnfairness is the core claim of the paper as an
// integration test: across several mixes, STFM's unfairness is
// markedly below FR-FCFS's.
func TestSTFMReducesUnfairness(t *testing.T) {
	mixes := [][]string{
		{"mcf", "libquantum"},
		{"mcf", "libquantum", "GemsFDTD", "astar"},
		{"libquantum", "omnetpp", "hmmer", "h264ref"},
	}
	for _, mix := range mixes {
		profs := profilesByName(t, mix...)
		unf := map[PolicyKind]float64{}
		for _, pol := range []PolicyKind{PolicyFRFCFS, PolicySTFM} {
			cfg := DefaultConfig(pol, len(mix))
			cfg.InstrTarget = 100_000
			res, err := Run(cfg, profs)
			if err != nil {
				t.Fatal(err)
			}
			// Measure unfairness directly from shared MCPI over the
			// alone baselines.
			alone := make([]float64, len(profs))
			for i, p := range profs {
				acfg := DefaultConfig(PolicyFRFCFS, 1)
				acfg.Channels = ChannelsFor(len(mix))
				acfg.InstrTarget = 100_000
				ares, err := Run(acfg, []trace.Profile{p})
				if err != nil {
					t.Fatal(err)
				}
				alone[i] = ares.Threads[0].MCPI
			}
			min, max := math.Inf(1), 0.0
			for i, th := range res.Threads {
				s := th.MCPI / math.Max(alone[i], 1e-6)
				if s < min {
					min = s
				}
				if s > max {
					max = s
				}
			}
			unf[pol] = max / min
		}
		if unf[PolicySTFM] >= unf[PolicyFRFCFS] {
			t.Errorf("mix %v: STFM unfairness %.2f not below FR-FCFS %.2f", mix, unf[PolicySTFM], unf[PolicyFRFCFS])
		}
	}
}

func TestSTFMLargeAlphaMatchesFRFCFSBehavior(t *testing.T) {
	profs := profilesByName(t, "mcf", "libquantum", "GemsFDTD", "astar")
	cfg := DefaultConfig(PolicySTFM, 4)
	cfg.InstrTarget = 50_000
	cfg.STFM = core.DefaultConfig()
	cfg.STFM.Alpha = 1e9 // fairness rule never engages
	stfmRes, err := Run(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(PolicyFRFCFS, 4)
	base.InstrTarget = 50_000
	frRes, err := Run(base, profs)
	if err != nil {
		t.Fatal(err)
	}
	// With the fairness rule disabled, STFM is FR-FCFS.
	for i := range stfmRes.Threads {
		if stfmRes.Threads[i].Cycles != frRes.Threads[i].Cycles {
			t.Errorf("thread %d: STFM(alpha=inf) %d cycles vs FR-FCFS %d — should be identical",
				i, stfmRes.Threads[i].Cycles, frRes.Threads[i].Cycles)
		}
	}
}

// TestSTFMConfigDefaultsPerField: a partial Config.STFM takes the paper
// default for each zero parameter (Alpha, IntervalLength, Gamma) and
// keeps every other field, so it runs exactly like the config spelled
// out from core.DefaultConfig — weights are not dropped, and a lone
// Alpha does not leave IntervalLength at zero.
func TestSTFMConfigDefaultsPerField(t *testing.T) {
	profs := profilesByName(t, "mcf", "libquantum")
	spelled := func(edit func(*core.Config)) core.Config {
		c := core.DefaultConfig()
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name          string
		partial, full core.Config
	}{
		{"weights", core.Config{Weights: []float64{1, 8}},
			spelled(func(c *core.Config) { c.Weights = []float64{1, 8} })},
		{"alpha", core.Config{Alpha: 1.2},
			spelled(func(c *core.Config) { c.Alpha = 1.2 })},
	} {
		var res [2]*Result
		for i, stfm := range []core.Config{tc.partial, tc.full} {
			cfg := DefaultConfig(PolicySTFM, 2)
			cfg.InstrTarget = 30_000
			cfg.STFM = stfm
			r, err := Run(cfg, profs)
			if err != nil {
				t.Fatalf("%s: %+v: %v", tc.name, stfm, err)
			}
			res[i] = r
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s: %+v ran differently from its spelled-out %+v", tc.name, tc.partial, tc.full)
		}
	}
}

func TestStreamsLengthValidation(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 2)
	cfg.Streams = make([]trace.Stream, 1)
	if _, err := NewSystem(cfg, profilesByName(t, "mcf", "hmmer")); err == nil {
		t.Error("stream/core count mismatch must fail")
	}
}

// TestTailLatencyReflectsStarvation: under FR-FCFS a low-locality
// thread sharing with a streamer has a much fatter read-latency tail
// than the streamer — the starvation signature of Section 2.5.
func TestTailLatencyReflectsStarvation(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 2)
	cfg.InstrTarget = 60_000
	res, err := Run(cfg, profilesByName(t, "mcf", "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	mcf, lib := res.Threads[0], res.Threads[1]
	if mcf.P99ReadLatency <= lib.P99ReadLatency {
		t.Errorf("mcf's P99 (%d) should exceed libquantum's (%d) under FR-FCFS",
			mcf.P99ReadLatency, lib.P99ReadLatency)
	}
	if mcf.P95ReadLatency <= 0 || mcf.P99ReadLatency < mcf.P95ReadLatency {
		t.Errorf("percentiles inconsistent: p95=%d p99=%d", mcf.P95ReadLatency, mcf.P99ReadLatency)
	}
}

// TestCacheStreamWorkload runs a hot/cold cache workload through the
// full hierarchy and checks the cache levels behave as sized: the hot
// set hits, the cold stream reaches DRAM.
func TestCacheStreamWorkload(t *testing.T) {
	w := trace.CacheWorkload{Name: "hot90", HotLines: 256, HotFraction: 0.9,
		ColdLines: 200_000, StoreFraction: 0.2, Gap: 8}
	s1, err := trace.NewCacheStream(w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := trace.NewCacheStream(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(PolicySTFM, 2)
	cfg.InstrTarget = 60_000
	cfg.UseCaches = true
	cfg.Streams = []trace.Stream{s1, s2}
	sys, err := NewSystem(cfg, profilesByName(t, "mcf", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := sys.Hierarchy(0)
	if h == nil {
		t.Fatal("hierarchy missing in cache mode")
	}
	if hr := h.L1().HitRate(); hr < 0.6 {
		t.Errorf("L1 hit rate %.2f too low for a 90%%-hot workload", hr)
	}
	if res.Threads[0].DRAMReads == 0 {
		t.Error("cold stream never reached DRAM")
	}
}

func TestTCMRuns(t *testing.T) {
	cfg := DefaultConfig(PolicyTCM, 4)
	cfg.InstrTarget = 40_000
	res, err := Run(cfg, profilesByName(t, "mcf", "libquantum", "GemsFDTD", "astar"))
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range res.Threads {
		if th.Truncated || th.IPC <= 0 {
			t.Errorf("%s: truncated=%v ipc=%v", th.Benchmark, th.Truncated, th.IPC)
		}
	}
}
