// Command stfm-bench measures the simulator's stepping performance:
// it runs the same workload under dense per-cycle ticking and under
// event-driven stepping, verifies the results are bit-identical, and
// writes the wall-clock comparison to a JSON file (BENCH_stepping.json
// by convention) so successive PRs have a perf trajectory to compare
// against. A third timed mode re-runs event-driven stepping with a
// telemetry collector attached, measuring the observability layer's
// overhead and verifying the instrumented schedule is still
// bit-identical; -trace-out additionally saves that run's event ring
// as a Chrome trace (the CI artifact).
//
// A second mode, -suite sched, runs the scheduler-hot-path suite: the
// 8- and 16-core STFM mixes that keep the controller busy every DRAM
// edge (plus the same 16-core mix on the HBM pack's 8 channels), timed
// event-driven and written to BENCH_sched.json with each mix's
// controller and engine work counters (memctrl.Work, sim.Work)
// alongside. Wall clocks are comparable only between runs on one host,
// so the report carries no ratio against another host's numbers:
// compare two commits by running the suite on both. The work counters are deterministic and compare
// exactly across hosts.
//
// A third mode, -suite matrix, benchmarks the persistent alone-baseline
// store (DESIGN.md §18): the fig5- and protocols-shaped matrices each
// run cold (every cell, fresh baselines) and baseline-cached (every
// cell against a warm shared store), and the report (BENCH_matrix.json)
// records both wall clocks and the store's hit rate. The suite fails
// unless every cached cell is bit-identical to its cold cell and every
// cached baseline is a hit.
//
// Every report opens with the host envelope: CPU count, GOMAXPROCS, Go
// version and the commit it was built from.
//
// Usage:
//
//	stfm-bench [-mix mcf,h264ref] [-policy FR-FCFS] [-instrs 100000] \
//	           [-minmisses 150] [-repeat 3] [-sample-every 1000] \
//	           [-trace-out trace.json] [-o BENCH_stepping.json]
//	stfm-bench -suite sched [-repeat 3] [-o BENCH_sched.json]
//	stfm-bench -suite matrix [-repeat 2] [-baseline-dir store/] [-o BENCH_matrix.json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stfm/internal/dram"
	"stfm/internal/experiments"
	"stfm/internal/memctrl"
	"stfm/internal/sim"
	"stfm/internal/store"
	"stfm/internal/telemetry"
	"stfm/internal/trace"
	"stfm/internal/workloads"
)

// host is the envelope every report carries. Wall clocks from
// different hosts are not comparable, while every Result and work
// counter is; the envelope says which host and code a report's timings
// belong to.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the checked-out HEAD, marked "+dirty" when the working
	// tree has changes, and empty outside a git checkout.
	Commit string `json:"commit"`
}

func hostEnvelope() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit returns `git rev-parse HEAD`, with "+dirty" appended when
// `git status --porcelain` prints anything, or "" when git fails.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return ""
	}
	c := strings.TrimSpace(string(head))
	if len(status) > 0 {
		c += "+dirty"
	}
	return c
}

type report struct {
	// Suite names the report's shape ("stepping"), like the sched and
	// matrix reports.
	Suite string `json:"suite"`
	host
	// Workload identification.
	Mix    []string       `json:"mix"`
	Policy sim.PolicyKind `json:"policy"`
	Instrs int64          `json:"instr_target"`
	Cycles int64          `json:"cycles_simulated"`
	// Wall-clock results (best of -repeat runs, like testing.B).
	DenseNs int64 `json:"dense_ns"`
	EventNs int64 `json:"event_ns"`
	// Derived throughput and the headline ratio.
	DenseCyclesPerSec float64 `json:"dense_cycles_per_sec"`
	EventCyclesPerSec float64 `json:"event_cycles_per_sec"`
	Speedup           float64 `json:"speedup"`
	// ResultsIdentical records the built-in differential check: the
	// dense and event runs produced field-for-field equal Results.
	ResultsIdentical bool `json:"results_identical"`
	// Telemetry overhead: event-driven stepping re-timed with a
	// collector attached (sampling + event ring). TelemetryOverhead is
	// telemetry_ns / event_ns; the untelemetered path must stay within
	// noise of 1.0x of itself across PRs, and the telemetered run's
	// Result must still be bit-identical (telemetry observes, never
	// steers).
	TelemetryNs               int64   `json:"telemetry_ns"`
	TelemetryCyclesPerSec     float64 `json:"telemetry_cycles_per_sec"`
	TelemetryOverhead         float64 `json:"telemetry_overhead"`
	TelemetrySamples          int     `json:"telemetry_samples"`
	TelemetryEvents           uint64  `json:"telemetry_events"`
	TelemetryResultsIdentical bool    `json:"telemetry_results_identical"`
	// Work and EngineWork are the event run's controller and engine
	// work counters: deterministic, so they compare exactly across
	// hosts.
	Work       memctrl.Work `json:"work"`
	EngineWork sim.Work     `json:"engine_work"`
}

func main() {
	mixFlag := flag.String("mix", "astar,omnetpp", "comma-separated benchmark names")
	policyFlag := flag.String("policy", string(sim.PolicyFRFCFS), "scheduling policy")
	protocolFlag := flag.String("protocol", "", "DRAM protocol pack for single-mix mode: DDR2, DDR3, DDR4, GDDR5, HBM")
	instrs := flag.Int64("instrs", 100_000, "per-thread instruction target")
	minMisses := flag.Int64("minmisses", 150, "minimum DRAM misses per thread")
	repeat := flag.Int("repeat", 3, "timed repetitions per mode (best is reported)")
	out := flag.String("o", "BENCH_stepping.json", "output JSON path")
	sampleEvery := flag.Int64("sample-every", 1000, "telemetry sampling interval in DRAM cycles for the overhead run")
	traceOut := flag.String("trace-out", "", "write the telemetered run's event ring as a Chrome trace")
	baselineDir := flag.String("baseline-dir", "", "matrix suite: persistent alone-baseline store directory shared with stfm-experiments/-sweep/-server (empty: a throwaway temp dir)")
	suite := flag.String("suite", "", `named suite to run instead of a single mix ("sched", "matrix")`)
	flag.Parse()

	if *repeat < 1 {
		fatal(fmt.Errorf("-repeat must be at least 1, got %d", *repeat))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch *suite {
	case "sched":
		path := *out
		if path == "BENCH_stepping.json" {
			path = "BENCH_sched.json"
		}
		runSchedSuite(ctx, stop, *repeat, path)
		return
	case "matrix":
		path := *out
		if path == "BENCH_stepping.json" {
			path = "BENCH_matrix.json"
		}
		runMatrixSuite(ctx, stop, *repeat, *baselineDir, path)
		return
	case "":
	default:
		fatal(fmt.Errorf("unknown suite %q (known: \"sched\", \"matrix\")", *suite))
	}
	names := strings.Split(*mixFlag, ",")
	profiles, err := experiments.Profiles(names...)
	if err != nil {
		fatal(err)
	}
	cfg := sim.DefaultConfig(sim.PolicyKind(*policyFlag), len(profiles))
	cfg.Protocol = dram.Protocol(*protocolFlag)
	if cfg.Protocol != "" {
		// Let the protocol's channel scaling apply instead of the
		// DDR2-seeded count from DefaultConfig.
		cfg.Channels = sim.ProtocolChannels(cfg.Protocol, len(profiles))
	}
	cfg.InstrTarget = *instrs
	cfg.MinMisses = *minMisses

	run := func(dense, tel bool) (*sim.Result, time.Duration, *sim.System) {
		best := time.Duration(1<<63 - 1)
		var res *sim.Result
		var sys *sim.System
		for i := 0; i < *repeat; i++ {
			c := cfg
			c.DenseTick = dense
			if tel {
				// Fresh collector per repetition so each timed run pays
				// the same sampling and ring-recording work.
				c.Telemetry = telemetry.New(telemetry.Options{SampleEvery: *sampleEvery, TraceCap: telemetry.DefaultTraceCap})
			}
			start := time.Now()
			s, err := sim.NewSystem(c, profiles)
			if err != nil {
				fatal(err)
			}
			r, err := s.RunContext(ctx)
			if err != nil {
				if errors.Is(err, sim.ErrCanceled) || errors.Is(err, sim.ErrDeadline) {
					fmt.Fprintln(os.Stderr, "stfm-bench: interrupted, no report written:", err)
					stop()
					os.Exit(130)
				}
				fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			res, sys = r, s
		}
		return res, best, sys
	}

	denseRes, denseT, _ := run(true, false)
	eventRes, eventT, eventSys := run(false, false)
	telRes, telT, telSys := run(false, true)
	telCol := telSys.Telemetry()

	rep := report{
		Suite:             "stepping",
		host:              hostEnvelope(),
		Mix:               names,
		Policy:            cfg.Policy,
		Instrs:            cfg.InstrTarget,
		Cycles:            eventRes.TotalCycles,
		DenseNs:           denseT.Nanoseconds(),
		EventNs:           eventT.Nanoseconds(),
		DenseCyclesPerSec: float64(denseRes.TotalCycles) / denseT.Seconds(),
		EventCyclesPerSec: float64(eventRes.TotalCycles) / eventT.Seconds(),
		Speedup:           denseT.Seconds() / eventT.Seconds(),
		ResultsIdentical:  reflect.DeepEqual(denseRes, eventRes),

		TelemetryNs:               telT.Nanoseconds(),
		TelemetryCyclesPerSec:     float64(telRes.TotalCycles) / telT.Seconds(),
		TelemetryOverhead:         telT.Seconds() / eventT.Seconds(),
		TelemetrySamples:          telCol.Series.Len(),
		TelemetryEvents:           telCol.Tracer.Total(),
		TelemetryResultsIdentical: reflect.DeepEqual(eventRes, telRes),
		Work:                      eventSys.Controller().Work(),
		EngineWork:                eventSys.Work(),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := telCol.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s: dense %v, event %v (%.2fx), telemetry %v (%.2fx overhead), %d cycles, identical=%v/%v\n  work %+v\n  engine %+v\n",
		strings.Join(names, "+"), denseT, eventT, rep.Speedup, telT, rep.TelemetryOverhead,
		rep.Cycles, rep.ResultsIdentical, rep.TelemetryResultsIdentical, rep.Work, rep.EngineWork)
	if !rep.ResultsIdentical {
		fatal(fmt.Errorf("dense and event-driven results diverged"))
	}
	if !rep.TelemetryResultsIdentical {
		fatal(fmt.Errorf("attaching telemetry changed the simulation result"))
	}
}

// schedMix is one timed workload of the sched suite: the event-driven
// column and the dense run that re-verifies its bit-exactness.
type schedMix struct {
	Name              string         `json:"name"`
	Mix               []string       `json:"mix"`
	Policy            sim.PolicyKind `json:"policy"`
	Protocol          dram.Protocol  `json:"protocol,omitempty"`
	Channels          int            `json:"channels"`
	Instrs            int64          `json:"instr_target"`
	Cycles            int64          `json:"cycles_simulated"`
	DenseNs           int64          `json:"dense_ns"`
	EventNs           int64          `json:"event_ns"`
	EventCyclesPerSec float64        `json:"event_cycles_per_sec"`
	ResultsIdentical  bool           `json:"results_identical"`
	// Work and EngineWork are the controller's and the engine's work
	// counters for the event-driven run: deterministic, so unlike the
	// wall clocks they compare exactly across hosts.
	Work       memctrl.Work `json:"work"`
	EngineWork sim.Work     `json:"engine_work"`
}

type schedReport struct {
	Suite string `json:"suite"`
	host
	Mixes []schedMix `json:"mixes"`
}

// runSchedSuite times the scheduler-hot-path workloads: STFM (the
// policy that keeps the controller awake every DRAM edge, so the
// per-edge scheduling cost dominates) on an 8-core 2-channel mix, the
// 16-core 4-channel high8+low8 mix, and the same 16-core mix under the
// HBM pack's 8 channels (the widest preset). Each mix runs densely to
// re-verify bit-exactness of the event engine, then event-driven for
// the timed column.
func runSchedSuite(ctx context.Context, stop context.CancelFunc, repeat int, out string) {
	eight, err := experiments.Profiles("mcf", "h264ref", "bzip2", "gromacs", "gobmk", "dealII", "wrf", "namd")
	if err != nil {
		fatal(err)
	}
	sixteen := workloads.SixteenCoreMixes()[1] // high8+low8
	cases := []struct {
		name     string
		profiles []trace.Profile
		protocol dram.Protocol
	}{
		{"8core-2ch", eight, ""},
		{"16core-4ch-high8+low8", sixteen.Profiles, ""},
		{"16core-HBM-8ch-high8+low8", sixteen.Profiles, dram.HBM},
	}
	rep := schedReport{Suite: "sched", host: hostEnvelope()}
	for _, tc := range cases {
		cfg := sim.DefaultConfig(sim.PolicySTFM, len(tc.profiles))
		cfg.InstrTarget = 60_000
		cfg.MinMisses = 100
		cfg.Protocol = tc.protocol
		channels := cfg.Channels
		if tc.protocol != "" {
			// Let the protocol's channel scaling apply (HBM doubles it).
			channels = sim.ProtocolChannels(tc.protocol, len(tc.profiles))
			cfg.Channels = channels
		}
		timed := func(dense bool) (*sim.Result, time.Duration, *sim.System) {
			best := time.Duration(1<<63 - 1)
			var res *sim.Result
			var last *sim.System
			for i := 0; i < repeat; i++ {
				c := cfg
				c.DenseTick = dense
				start := time.Now()
				sys, err := sim.NewSystem(c, tc.profiles)
				if err != nil {
					fatal(err)
				}
				r, err := sys.RunContext(ctx)
				if err != nil {
					if errors.Is(err, sim.ErrCanceled) || errors.Is(err, sim.ErrDeadline) {
						fmt.Fprintln(os.Stderr, "stfm-bench: interrupted, no report written:", err)
						stop()
						os.Exit(130)
					}
					fatal(err)
				}
				if d := time.Since(start); d < best {
					best = d
				}
				res, last = r, sys
			}
			return res, best, last
		}
		denseRes, denseT, _ := timed(true)
		eventRes, eventT, eventSys := timed(false)
		names := make([]string, len(tc.profiles))
		for i, p := range tc.profiles {
			names[i] = p.Name
		}
		m := schedMix{
			Name:              tc.name,
			Mix:               names,
			Policy:            cfg.Policy,
			Protocol:          tc.protocol,
			Channels:          channels,
			Instrs:            cfg.InstrTarget,
			Cycles:            eventRes.TotalCycles,
			DenseNs:           denseT.Nanoseconds(),
			EventNs:           eventT.Nanoseconds(),
			EventCyclesPerSec: float64(eventRes.TotalCycles) / eventT.Seconds(),
			ResultsIdentical:  reflect.DeepEqual(denseRes, eventRes),
			Work:              eventSys.Controller().Work(),
			EngineWork:        eventSys.Work(),
		}
		rep.Mixes = append(rep.Mixes, m)
		fmt.Printf("%s: event %v, dense %v, %d cycles, identical=%v\n  work %+v\n  engine %+v\n",
			m.Name, eventT, denseT, m.Cycles, m.ResultsIdentical, m.Work, m.EngineWork)
		if !m.ResultsIdentical {
			fatal(fmt.Errorf("%s: dense and event-driven results diverged", m.Name))
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
}

// matrixSuiteInstrs is the per-thread instruction budget of the matrix
// suite.
const matrixSuiteInstrs int64 = 60_000

// matrixCase is one benchmarked matrix shape: the same grid of
// (mix, policy[, protocol]) cells timed cold and baseline-cached.
type matrixCase struct {
	ID        string `json:"id"`
	Mixes     int    `json:"mixes"`
	Policies  int    `json:"policies"`
	Protocols int    `json:"protocols"`
	Cells     int    `json:"cells"`
	Instrs    int64  `json:"instr_target"`
	// Wall clock per full matrix pass (best of -repeat):
	// cold   = every cell + the full alone-baseline fleet;
	// cached = every cell, baselines served by the store.
	ColdNs        int64   `json:"cold_ns"`
	CachedNs      int64   `json:"cached_ns"`
	CachedSpeedup float64 `json:"cached_speedup"`
	// Baseline-store traffic observed by the cached pass's last
	// repetition; a primed store makes the hit rate 1.0.
	BaselineHits    int64   `json:"baseline_hits"`
	BaselineMisses  int64   `json:"baseline_misses"`
	BaselineHitRate float64 `json:"baseline_hit_rate"`
	// CellsIdentical is the gate: every cached cell's WorkloadResult
	// (raw sim.Result and derived metrics) DeepEquals its cold cell.
	CellsIdentical bool `json:"cells_identical"`
}

type matrixReport struct {
	Suite string `json:"suite"`
	// The matrix worker pool scales with real CPUs, so wall clocks from
	// hosts with different CPU counts are not comparable (the speedup
	// ratio largely is — both passes use the same pool).
	host
	Repeat int          `json:"repeat"`
	Cases  []matrixCase `json:"cases"`
}

// runMatrixSuite benchmarks the two matrix shapes of DESIGN.md §18
// against a shared alone-baseline store, writing BENCH_matrix.json.
// A cached cell that differs from its cold cell, or a cached baseline
// that misses the store, is a hard failure, not a report field.
func runMatrixSuite(ctx context.Context, stop context.CancelFunc, repeat int, baselineDir, out string) {
	tempStore := baselineDir == ""
	if tempStore {
		dir, err := os.MkdirTemp("", "stfm-bench-baseline-")
		if err != nil {
			fatal(err)
		}
		baselineDir = dir
	}
	// The store the alone fleet is primed into; opening it here fails
	// the tool at start-up on an unusable directory.
	primed, err := store.Open(baselineDir)
	if err != nil {
		fatal(err)
	}

	interruptible := func(err error) {
		if errors.Is(err, sim.ErrCanceled) || errors.Is(err, sim.ErrDeadline) {
			fmt.Fprintln(os.Stderr, "stfm-bench: interrupted, no report written:", err)
			stop()
			os.Exit(130)
		}
		fatal(err)
	}

	runCase := func(spec experiments.MatrixSpec) matrixCase {
		protocols := spec.Protocols
		if len(protocols) == 0 {
			protocols = []dram.Protocol{""}
		}
		options := func(proto dram.Protocol, baselines *store.Store) experiments.Options {
			return experiments.Options{
				InstrTarget: matrixSuiteInstrs, MinMisses: 150, Seed: 1,
				Protocol: proto, Baseline: baselines,
			}
		}

		// One full pass over every protocol plane of the grid, one
		// RunMatrix call per plane. Every pass's runners share one fresh
		// store on dir ("" = memory-only), so its Stats describe exactly
		// that pass.
		runPass := func(dir string) (planes [][]map[sim.PolicyKind]*experiments.WorkloadResult, d time.Duration, stats store.Stats) {
			baselines, err := store.Open(dir)
			if err != nil {
				fatal(err)
			}
			start := time.Now()
			for _, proto := range protocols {
				r := experiments.NewRunnerContext(ctx, options(proto, baselines))
				plane, err := r.RunMatrix(spec.Mixes, spec.Policies, nil)
				if err != nil {
					interruptible(err)
				}
				planes = append(planes, plane)
			}
			return planes, time.Since(start), baselines.Stats()
		}

		// Prime the shared store with the alone fleet (untimed): the
		// cached pass measures matrix execution against a warm store, the
		// steady state of repeated sweeps sharing a directory. The cold
		// pass is indifferent to the disk — it runs memory-only.
		for _, proto := range protocols {
			r := experiments.NewRunnerContext(ctx, options(proto, primed))
			channels := sim.ProtocolChannels(proto, len(spec.Mixes[0].Profiles))
			for _, p := range distinctProfiles(spec.Mixes) {
				if _, err := r.Alone(p, channels); err != nil {
					interruptible(err)
				}
			}
		}

		// Timed repetitions alternate the two passes and swap their order
		// every repetition, so neither slow throughput drift on a shared
		// host nor the suite's own growing heap systematically favors
		// whichever pass runs first; best-of-repeat then discards the
		// drifted repetitions. Cold pays the full alone fleet every
		// repetition (memory-only store per pass); cached reads the
		// primed shared store.
		var coldPlanes, cachedPlanes [][]map[sim.PolicyKind]*experiments.WorkloadResult
		var cachedStats store.Stats
		coldT := time.Duration(1<<63 - 1)
		cachedT := coldT
		passes := []func(){
			func() {
				planes, d, _ := runPass("")
				if d < coldT {
					coldT = d
				}
				coldPlanes = planes
			},
			func() {
				planes, d, st := runPass(baselineDir)
				if d < cachedT {
					cachedT = d
				}
				cachedPlanes, cachedStats = planes, st
			},
		}
		for i := 0; i < repeat; i++ {
			for j := range passes {
				runtime.GC()
				passes[(i+j)%len(passes)]()
			}
		}

		c := matrixCase{
			ID:        spec.ID,
			Mixes:     len(spec.Mixes),
			Policies:  len(spec.Policies),
			Protocols: len(spec.Protocols),
			Cells:     spec.Cells(),
			Instrs:    matrixSuiteInstrs,

			ColdNs:        coldT.Nanoseconds(),
			CachedNs:      cachedT.Nanoseconds(),
			CachedSpeedup: coldT.Seconds() / cachedT.Seconds(),

			BaselineHits:   cachedStats.Hits,
			BaselineMisses: cachedStats.Misses,

			CellsIdentical: reflect.DeepEqual(cachedPlanes, coldPlanes),
		}
		if total := cachedStats.Hits + cachedStats.Misses; total > 0 {
			c.BaselineHitRate = float64(cachedStats.Hits) / float64(total)
		}
		fmt.Printf("%s: %d cells, cold %v, cached %v (%.2fx), hit rate %.0f%%, identical=%v\n",
			c.ID, c.Cells, coldT, cachedT, c.CachedSpeedup, 100*c.BaselineHitRate, c.CellsIdentical)
		if !c.CellsIdentical {
			fatal(fmt.Errorf("%s: baseline-cached cells diverged from the cold pass", spec.ID))
		}
		if c.BaselineHitRate != 1 {
			fatal(fmt.Errorf("%s: the cached pass missed the primed baseline store (%d misses)", spec.ID, c.BaselineMisses))
		}
		return c
	}

	rep := matrixReport{Suite: "matrix", host: hostEnvelope(), Repeat: repeat}
	for _, id := range []string{"fig5", "protocols"} {
		spec, err := experiments.MatrixByID(id)
		if err != nil {
			fatal(err)
		}
		rep.Cases = append(rep.Cases, runCase(spec))
	}
	if tempStore {
		os.RemoveAll(baselineDir)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
}

// distinctProfiles lists each benchmark appearing in the mixes once, in
// first-appearance order: the alone-baseline fleet of a matrix.
func distinctProfiles(mixes []workloads.Mix) []trace.Profile {
	seen := make(map[string]bool)
	var out []trace.Profile
	for _, m := range mixes {
		for _, p := range m.Profiles {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p)
			}
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stfm-bench:", err)
	os.Exit(1)
}
