package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func TestNormalize(t *testing.T) {
	out := newOutcome()
	out.metrics["setup_s"] = metric{2, "s"}
	out.metrics["latency_p50_s"] = metric{2, "s"}
	out.metrics["sim_minstr_per_s"] = metric{3, "Minstr/s"}
	out.metrics["jobs_per_s"] = metric{5, "jobs/s"}
	out.metrics["peak_rss_mb"] = metric{10, "MB"}
	normalize(out, 2, 4)
	for name, want := range map[string]float64{"setup_s": 0.5, "latency_p50_s": 1, "sim_minstr_per_s": 6, "jobs_per_s": 10, "peak_rss_mb": 10} {
		if got := out.metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if raw := out.info["raw_metrics"].(metricSet); raw["setup_s"].Value != 2 {
		t.Errorf("raw setup_s = %v, want 2", raw["setup_s"].Value)
	}
}

func TestHostRefSlowdown(t *testing.T) {
	var none *hostRef
	none.chunk()
	if got := none.slowdown(); got != 1 {
		t.Errorf("nil reference slowdown = %v, want 1", got)
	}
	// The slowest fifth of the chunks is dropped.
	h := &hostRef{samples: []float64{2 * refNominalS, 2 * refNominalS, 4 * refNominalS, 2 * refNominalS, 100}}
	if got := h.slowdown(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("slowdown = %v, want 2.5", got)
	}
	h.chunk()
	if len(h.samples) != 6 || !(h.samples[5] > 0) {
		t.Errorf("chunk recorded %v", h.samples)
	}
}

// cannedTraces is `go tool pprof -traces` output in the toolchain's
// format: a header, then one dashed block per stack, innermost first.
const cannedTraces = `File: perfbench
Type: cpu
Duration: 2s, Total samples = 100ms (5.00%)
-----------+-------------------------------------------------------
      40ms   stfm/internal/memctrl/policy.(*FRFCFS).Less
             stfm/internal/memctrl.(*Controller).arbitrateChannel
             stfm/internal/sim.(*System).step
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             stfm/internal/cache.(*Cache).Fill (inline)
             stfm/internal/cache.(*Hierarchy).Tick
             stfm/internal/sim.(*System).step
-----------+-------------------------------------------------------
      15ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
       5ms   encoding/json.(*encodeState).marshal
             main.digestOf
-----------+-------------------------------------------------------
      10ms   math.Log
             stfm/internal/metrics.GeoMean
             stfm/internal/service.(*Server).Stats
-----------+-------------------------------------------------------
`

func TestAttributeTraces(t *testing.T) {
	got, err := attributeTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"policy": 0.4, "cache": 0.3, "runtime": 0.15, "bench": 0.05, "other": 0.1}
	var sum float64
	for _, l := range shareLayers {
		sum += got[l]
		if math.Abs(got[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, got[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := attributeTraces("File: x\nType: cpu\n"); err == nil {
		t.Error("text without samples should fail")
	}
	if _, err := attributeTraces("-----------+---\n   lots   main.f\n"); err == nil {
		t.Error("a malformed sample value should fail")
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"stfm/internal/memctrl.(*Controller).Tick"}, "memctrl"},
		{[]string{"stfm/internal/memctrl/policy.(*NFQ).Less"}, "policy"},
		{[]string{"runtime.memmove", "stfm/internal/dram.(*Channel).Issue"}, "dram"},
		{[]string{"runtime.mcall", "runtime.park_m"}, "runtime"},
		{[]string{"stfm/internal/workloads.named"}, "other"},
		{[]string{"main.run", "stfm/internal/sim.Run"}, "bench"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "run", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "run", Start: 90, End: 120},
	}
	tot := totals(spans)
	if got := tot["cell"].SelfS * 1e9; math.Abs(got-50) > 1e-6 {
		t.Errorf("cell self time = %v ns, want 50", got)
	}
	if tot["run"].Count != 3 {
		t.Errorf("run count = %d, want 3", tot["run"].Count)
	}
}

// tinyBench is a run small enough for the unit tests.
func tinyBench(t *testing.T, seed uint64, traced bool) *bench {
	return &bench{
		seed:    seed,
		scale:   scale{Instr: 3000, Setups: 1, Passes: 2, Requests: 24},
		traced:  traced,
		outDir:  t.TempDir(),
		workDir: t.TempDir(),
	}
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkNames requires the printed metrics to be exactly the listed ones,
// with the listed units.
func checkNames(t *testing.T, got metricSet, want []struct{ Name, Unit string }) {
	t.Helper()
	var extra []string
	listed := map[string]bool{}
	for _, w := range want {
		listed[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
	for name := range got {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
}

func TestSmoke(t *testing.T) {
	spec := readBenchmarkFile(t)
	for name, fn := range workloadFuncs {
		t.Run(name, func(t *testing.T) {
			out, err := execute(fn, tinyBench(t, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.failures)
			}
			checkNames(t, out.metrics, spec.EndToEnd)
			for k, m := range out.metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

// TestDeterminism is the determinism self-check: every count and model
// metric of a traced run repeats exactly for a seed and the results
// change under another seed. Host-time metrics are exempt.
func TestDeterminism(t *testing.T) {
	spec := readBenchmarkFile(t)
	for name, fn := range workloadFuncs {
		t.Run(name, func(t *testing.T) {
			var runs []*outcome
			for _, seed := range []uint64{1, 1, 2} {
				out, err := execute(fn, tinyBench(t, seed, true))
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 {
					t.Fatalf("seed %d: %v", seed, out.failures)
				}
				checkNames(t, out.metrics, spec.PerLayer)
				runs = append(runs, out)
			}
			a, b, c := runs[0], runs[1], runs[2]
			for k, m := range a.metrics {
				if deterministicLayers(k) && b.metrics[k] != m {
					t.Errorf("%s: %v then %v for the same seed", k, m.Value, b.metrics[k].Value)
				}
			}
			if a.digest != b.digest {
				t.Error("results digest differs for the same seed")
			}
			if a.digest == c.digest {
				t.Error("results digest unchanged under another seed")
			}
			if a.metrics["sim.cycles"] == c.metrics["sim.cycles"] {
				t.Error("sim.cycles unchanged under another seed")
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper4", "--trace", "2"},
		{"--workload", "paper4", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, os.Stdout, os.Stderr); code == 0 {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// deterministicLayers lists the per-layer metrics that depend only on
// the seed and the work size, never on the host: they must repeat
// exactly for a seed.
func deterministicLayers(name string) bool {
	if strings.HasPrefix(name, "model.") {
		return true
	}
	switch name {
	case "memctrl.reads", "memctrl.writes", "memctrl.read_lat_avg_cycles",
		"core.fairness_mode_frac", "core.interval_resets",
		"dram.activates", "dram.precharges", "dram.row_hit_rate", "dram.bus_util", "dram.refreshes",
		"cpu.mem_stall_cycles", "cpu.dram_loads",
		"cache.l1_hit_rate", "cache.l2_hit_rate", "cache.l2_misses",
		"sim.cycles", "sim.instructions",
		"experiments.alone_runs", "experiments.baseline_hits", "experiments.baseline_misses",
		"service.cache_hits", "service.cache_misses", "service.journal_records", "service.checkpoint_writes":
		return true
	}
	return false
}
