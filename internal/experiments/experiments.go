// Package experiments reproduces every figure and table of the paper's
// evaluation (Section 7). Each experiment builds workloads from the
// Table 3 benchmark profiles, runs them under the evaluated schedulers,
// and reports the paper's metrics. The per-experiment index lives in
// DESIGN.md; paper-vs-measured results are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"stfm/internal/dram"
	"stfm/internal/metrics"
	"stfm/internal/sim"
	"stfm/internal/store"
	"stfm/internal/telemetry"
	"stfm/internal/trace"
)

// Options tunes experiment scale (the knobs Section 6.1's methodology
// fixes for the paper's runs). Defaults balance fidelity and run time;
// benches shrink them further.
type Options struct {
	// InstrTarget is the per-thread instruction budget.
	InstrTarget int64
	// MinMisses extends sparse threads' windows so every thread's
	// slowdown is measured over at least this many DRAM accesses (see
	// sim.Config.MinMisses).
	MinMisses int64
	// Seed drives workload generation.
	Seed uint64
	// Protocol selects a named DRAM timing/geometry pack for every run,
	// including the alone baselines (empty = the paper's DDR2-800; see
	// dram.PresetTiming). Geometry/Timing below still override the pack.
	Protocol dram.Protocol
	// Channels overrides channel auto-scaling (0 = paper scaling,
	// protocol-aware via sim.ProtocolChannels).
	Channels int
	// Geometry / Timing override the DRAM organization (Table 5).
	Geometry *dram.Geometry
	Timing   *dram.Timing
	// Baseline holds the alone-run baselines (the Talone denominators),
	// keyed by store.Key over each alone config and its one benchmark
	// (DESIGN.md §18). Runners sharing a store share its alone runs; a
	// store opened on a directory shares them with other processes, the
	// stfm-server included. Nil gives the runner a fresh memory-only
	// store.
	Baseline *store.Store
	// Telemetry, when enabled, attaches a fresh telemetry.Collector to
	// every shared workload run (alone-run baselines stay untelemetered,
	// since their only purpose is the Talone denominator of Section 6.2).
	// Collected series are retrievable via Runner.TimeSeries.
	Telemetry telemetry.Options
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{InstrTarget: 200_000, MinMisses: 150, Seed: 1}
}

// Runner executes workloads and caches alone-run baselines, since
// every slowdown computation compares a shared run against the same
// benchmark running alone in the same memory system under FR-FCFS
// (Section 6.2).
type Runner struct {
	opts Options
	// ctx bounds every simulation the runner starts: when it is
	// canceled, in-progress runs abort with partial results and
	// sim.ErrCanceled / sim.ErrDeadline.
	ctx context.Context
	// baseline holds the alone-run baselines, with per-key singleflight
	// for concurrent matrix cells (Options.Baseline).
	baseline *store.Store

	mu   sync.Mutex
	runs []RunTelemetry
}

// RunTelemetry pairs one shared workload run with the telemetry it
// collected. Runs are recorded in completion order.
type RunTelemetry struct {
	Policy     sim.PolicyKind
	Benchmarks []string
	Collector  *telemetry.Collector
}

// NewRunner creates a Runner with the given options.
func NewRunner(opts Options) *Runner {
	return NewRunnerContext(context.Background(), opts)
}

// NewRunnerContext creates a Runner whose simulations observe ctx:
// cancellation (e.g. from signal.NotifyContext) aborts the in-progress
// run at the next event-horizon boundary, so a SIGINT'd experiment
// suite stops quickly while keeping the telemetry collected so far.
func NewRunnerContext(ctx context.Context, opts Options) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.InstrTarget <= 0 {
		opts.InstrTarget = DefaultOptions().InstrTarget
	}
	baseline := opts.Baseline
	if baseline == nil {
		baseline = new(store.Store)
	}
	return &Runner{opts: opts, ctx: ctx, baseline: baseline}
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// Baseline returns the runner's alone-baseline store (never nil), so
// callers can read its hit/miss counters or share it across runners.
func (r *Runner) Baseline() *store.Store { return r.baseline }

func (r *Runner) baseConfig(policy sim.PolicyKind, cores int) sim.Config {
	cfg := sim.DefaultConfig(policy, cores)
	cfg.InstrTarget = r.opts.InstrTarget
	cfg.MinMisses = r.opts.MinMisses
	cfg.Seed = r.opts.Seed
	cfg.Protocol = r.opts.Protocol
	cfg.Channels = r.opts.Channels
	cfg.Geometry = r.opts.Geometry
	cfg.Timing = r.opts.Timing
	return cfg
}

// aloneConfig is the configuration of one alone-run baseline: the
// benchmark running alone in the same memory system under FR-FCFS
// (Section 6.2). Everything that changes the baseline is captured by
// this config's Fingerprint, which is what store.Key hashes.
func (r *Runner) aloneConfig(channels int) sim.Config {
	cfg := r.baseConfig(sim.PolicyFRFCFS, 1)
	cfg.Channels = channels
	return cfg
}

// aloneConfigFor is the alone-run configuration behind one shared run:
// aloneConfig(channels) on the shared config's machine — cache mode,
// DRAM pack and overrides, core and MSHR sizing — so a mutate that
// changes the machine (cache mode, refresh timing) changes the Talone
// denominator with it. Scheduler fields (STFM, CapValue, NFQWeights,
// the fork knobs) stay at the alone run's FR-FCFS defaults, so a nil or
// policy-only mutate keeps the key that Alone computes.
func (r *Runner) aloneConfigFor(shared sim.Config, channels int) sim.Config {
	cfg := r.aloneConfig(channels)
	cfg.UseCaches = shared.UseCaches
	cfg.Protocol = shared.Protocol
	cfg.Geometry = shared.Geometry
	cfg.Timing = shared.Timing
	cfg.CoreCfg = shared.CoreCfg
	cfg.MSHRs = shared.MSHRs
	return cfg
}

// Alone returns the benchmark's alone-run result in a memory system
// with the given channel count, computing it on first use. Safe for
// concurrent use: callers racing on the same baseline block on one
// compute (store.Store.Do), and distinct baselines compute in
// parallel.
func (r *Runner) Alone(p trace.Profile, channels int) (sim.ThreadResult, error) {
	return r.alone(r.aloneConfig(channels), p)
}

// alone returns p's alone-run result under cfg, through the baseline
// store. The key is the one-benchmark job key, so an alone-shaped
// stfm-server job and this run share one store entry.
func (r *Runner) alone(cfg sim.Config, p trace.Profile) (sim.ThreadResult, error) {
	res, err := r.baseline.Do(r.ctx, store.Key(cfg, []string{p.Name}), func() (*sim.Result, error) {
		res, err := sim.RunContext(r.ctx, cfg, []trace.Profile{p})
		if err != nil {
			return nil, fmt.Errorf("alone run of %s: %w", p.Name, err)
		}
		return res, nil
	})
	if err != nil {
		return sim.ThreadResult{}, err
	}
	return res.Threads[0], nil
}

// WorkloadResult is one (workload, scheduler) data point with all of
// the paper's metrics (Section 6.2): per-thread slowdowns, the
// unfairness index, and the three throughput measures.
type WorkloadResult struct {
	Policy     sim.PolicyKind
	Benchmarks []string
	Shared     []sim.ThreadResult
	// Result is the raw shared-run sim.Result the metrics derive from
	// (Result.Threads == Shared).
	Result    *sim.Result
	AloneMCPI []float64
	AloneIPC  []float64
	// Slowdowns are the per-thread memory slowdowns
	// (MCPI_shared / MCPI_alone).
	Slowdowns []float64
	// Unfairness is max slowdown over min slowdown.
	Unfairness float64
	// WeightedSpeedup, HmeanSpeedup, SumIPC are the throughput
	// metrics of Section 6.2.
	WeightedSpeedup float64
	HmeanSpeedup    float64
	SumIPC          float64
}

// RunWorkload runs the given benchmark mix under policy and computes
// the paper's metrics against cached alone baselines. mutate, if
// non-nil, adjusts the simulation config (weights, STFM parameters,
// DRAM geometry) before the run.
func (r *Runner) RunWorkload(policy sim.PolicyKind, profiles []trace.Profile, mutate func(*sim.Config)) (*WorkloadResult, error) {
	cfg := r.baseConfig(policy, len(profiles))
	if mutate != nil {
		mutate(&cfg)
	}
	channels := cfg.Channels
	if channels == 0 {
		channels = sim.ProtocolChannels(cfg.Protocol, len(profiles))
	}
	var col *telemetry.Collector
	if r.opts.Telemetry.Enabled() {
		col = telemetry.New(r.opts.Telemetry)
		cfg.Telemetry = col
	}
	res, err := sim.RunContext(r.ctx, cfg, profiles)
	if col != nil {
		// Record the collector even when the run failed or was
		// canceled: a partial time series is exactly what an
		// interrupted run should still flush to disk.
		r.mu.Lock()
		r.runs = append(r.runs, RunTelemetry{
			Policy:     policy,
			Benchmarks: trace.Names(profiles),
			Collector:  col,
		})
		r.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	aloneCfg := r.aloneConfigFor(cfg, channels)
	wr := &WorkloadResult{
		Policy:     policy,
		Benchmarks: trace.Names(profiles),
		Shared:     res.Threads,
		Result:     res,
	}
	sharedIPC := make([]float64, len(profiles))
	sharedMCPI := make([]float64, len(profiles))
	for i, th := range res.Threads {
		alone, err := r.alone(aloneCfg, profiles[i])
		if err != nil {
			return nil, err
		}
		wr.AloneMCPI = append(wr.AloneMCPI, alone.MCPI)
		wr.AloneIPC = append(wr.AloneIPC, alone.IPC)
		sharedIPC[i] = th.IPC
		sharedMCPI[i] = th.MCPI
	}
	wr.Slowdowns = metrics.MemSlowdowns(sharedMCPI, wr.AloneMCPI)
	wr.Unfairness = metrics.Unfairness(wr.Slowdowns)
	wr.WeightedSpeedup = metrics.WeightedSpeedup(sharedIPC, wr.AloneIPC)
	wr.HmeanSpeedup = metrics.HmeanSpeedup(sharedIPC, wr.AloneIPC)
	wr.SumIPC = metrics.SumIPC(sharedIPC)
	return wr, nil
}

// RunAllPolicies runs the mix under all five evaluated schedulers
// (Section 7 compares FCFS, FR-FCFS, FR-FCFS+Cap, NFQ, and STFM).
func (r *Runner) RunAllPolicies(profiles []trace.Profile, mutate func(*sim.Config)) (map[sim.PolicyKind]*WorkloadResult, error) {
	out := make(map[sim.PolicyKind]*WorkloadResult, 5)
	for _, pol := range sim.AllPolicies() {
		wr, err := r.RunWorkload(pol, profiles, mutate)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pol, err)
		}
		out[pol] = wr
	}
	return out, nil
}

// TimeSeries returns the telemetry recorded by every shared workload
// run so far, in completion order. Empty unless Options.Telemetry is
// enabled. Safe to call concurrently with running experiments.
func (r *Runner) TimeSeries() []RunTelemetry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RunTelemetry, len(r.runs))
	copy(out, r.runs)
	return out
}

// Profiles resolves benchmark names to profiles, failing fast on
// unknown names.
func Profiles(names ...string) ([]trace.Profile, error) {
	var out []trace.Profile
	for _, n := range names {
		p, err := trace.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
