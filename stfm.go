// Package stfm is a from-scratch reproduction of "Stall-Time Fair
// Memory Access Scheduling for Chip Multiprocessors" (Mutlu &
// Moscibroda, MICRO 2007): a cycle-level CMP + DDR2 DRAM simulation
// platform with five pluggable memory-access schedulers — FR-FCFS,
// FCFS, FR-FCFS+Cap, network fair queueing (NFQ), and STFM, the
// paper's stall-time fair scheduler.
//
// The package is a facade over the internal simulation substrates.
// Typical use:
//
//	res, err := stfm.Run(stfm.Config{
//		Scheduler: stfm.STFM,
//		Workload:  []string{"mcf", "libquantum", "GemsFDTD", "astar"},
//	})
//	fmt.Println(res.Unfairness, res.WeightedSpeedup)
//
// Workload names refer to the built-in synthetic benchmark profiles
// calibrated to the paper's Table 3/4 (see Benchmarks). Slowdowns are
// computed against cached alone-run baselines exactly as in the
// paper's Section 6.2.
package stfm

import (
	"fmt"

	"stfm/internal/core"
	"stfm/internal/experiments"
	"stfm/internal/sim"
	"stfm/internal/trace"
)

// Scheduler names a DRAM scheduling policy.
type Scheduler = sim.PolicyKind

// The five schedulers the paper evaluates, plus the follow-up
// extension PAR-BS.
const (
	// FRFCFS is first-ready first-come-first-serve, the
	// throughput-oriented, thread-unaware baseline.
	FRFCFS = sim.PolicyFRFCFS
	// FCFS services ready commands strictly oldest-first.
	FCFS = sim.PolicyFCFS
	// FRFCFSCap is FR-FCFS with a cap on column-over-row reordering.
	FRFCFSCap = sim.PolicyFRFCFSCap
	// NFQ is network-fair-queueing scheduling (Nesbit et al.'s
	// FQ-VFTF with the tRAS priority-inversion cap).
	NFQ = sim.PolicyNFQ
	// STFM is the paper's stall-time fair memory scheduler.
	STFM = sim.PolicySTFM
	// PARBS is parallelism-aware batch scheduling (Mutlu & Moscibroda,
	// ISCA 2008) — the authors' follow-up to STFM, included as an
	// extension beyond the paper's five evaluated schedulers.
	PARBS = sim.PolicyPARBS
)

// Schedulers returns all five schedulers in the paper's order.
func Schedulers() []Scheduler { return sim.AllPolicies() }

// Config describes one simulation.
type Config struct {
	// Scheduler selects the DRAM scheduling policy (default FR-FCFS).
	Scheduler Scheduler
	// Workload lists benchmark profile names, one per core (see
	// Benchmarks for the available set).
	Workload []string
	// Instructions is the per-thread measurement budget (default
	// 300k). Larger budgets reduce noise at linear cost.
	Instructions int64
	// Seed drives the deterministic trace generators (default 1).
	Seed uint64
	// Alpha is STFM's maximum tolerable unfairness threshold (default
	// 1.10; ignored by other schedulers).
	Alpha float64
	// Weights are per-thread system-software priorities: STFM scales
	// estimated slowdowns by them; NFQ converts them to bandwidth
	// shares. Nil means equal.
	Weights []float64
	// Channels overrides DRAM channel auto-scaling (0 = scale with
	// cores as in the paper's Table 2).
	Channels int
	// UseCaches simulates the full per-core L1/L2 hierarchy instead
	// of feeding L2 miss streams directly to the controller.
	UseCaches bool
}

// ThreadResult is one thread's measured performance.
type ThreadResult struct {
	// Benchmark is the profile name.
	Benchmark string
	// IPC is instructions per cycle in the shared system.
	IPC float64
	// MCPI is memory stall cycles per instruction.
	MCPI float64
	// Slowdown is MCPI divided by the thread's alone-run MCPI — the
	// paper's memory slowdown metric.
	Slowdown float64
	// AloneIPC and AloneMCPI are the cached alone-run baselines.
	AloneIPC  float64
	AloneMCPI float64
	// DRAMReads/DRAMWrites count serviced DRAM requests.
	DRAMReads  int64
	DRAMWrites int64
	// RowHitRate is the thread's row-buffer hit rate in the shared
	// system.
	RowHitRate float64
}

// Result aggregates one simulation run.
type Result struct {
	Scheduler Scheduler
	Threads   []ThreadResult
	// Unfairness is max slowdown / min slowdown (1 = perfectly fair).
	Unfairness float64
	// WeightedSpeedup is the system-throughput metric sum of
	// IPC_shared/IPC_alone.
	WeightedSpeedup float64
	// HmeanSpeedup balances fairness and throughput.
	HmeanSpeedup float64
	// SumIPC is raw IPC throughput (interpret with caution; see the
	// paper's Section 6.2).
	SumIPC float64
}

// Run simulates one workload under one scheduler.
func Run(cfg Config) (*Result, error) {
	return NewRunner(cfg.Instructions, cfg.Seed).Run(cfg)
}

// Compare runs the workload under several schedulers (all five when
// none are given), reusing alone-run baselines across runs.
func Compare(cfg Config, schedulers ...Scheduler) (map[Scheduler]*Result, error) {
	return NewRunner(cfg.Instructions, cfg.Seed).Compare(cfg, schedulers...)
}

// Runner caches alone-run baselines across simulations; use one Runner
// for a batch of related runs.
type Runner struct {
	inner *experiments.Runner
}

// NewRunner creates a Runner with the given per-thread instruction
// budget and seed (zero values select the defaults).
func NewRunner(instructions int64, seed uint64) *Runner {
	opts := experiments.DefaultOptions()
	opts.InstrTarget = 300_000
	if instructions > 0 {
		opts.InstrTarget = instructions
	}
	if seed != 0 {
		opts.Seed = seed
	}
	return &Runner{inner: experiments.NewRunner(opts)}
}

// Run simulates one workload under cfg.Scheduler.
func (r *Runner) Run(cfg Config) (*Result, error) {
	if len(cfg.Workload) == 0 {
		return nil, fmt.Errorf("stfm: empty workload")
	}
	if cfg.Weights != nil && len(cfg.Weights) != len(cfg.Workload) {
		return nil, fmt.Errorf("stfm: %d weights for %d threads", len(cfg.Weights), len(cfg.Workload))
	}
	profs, err := experiments.Profiles(cfg.Workload...)
	if err != nil {
		return nil, err
	}
	pol := cfg.Scheduler
	if pol == "" {
		pol = FRFCFS
	}
	wr, err := r.inner.RunWorkload(pol, profs, func(c *sim.Config) {
		c.UseCaches = cfg.UseCaches
		c.Channels = cfg.Channels
		stfmCfg := core.DefaultConfig()
		if cfg.Alpha > 0 {
			stfmCfg.Alpha = cfg.Alpha
		}
		if cfg.Weights != nil {
			stfmCfg.Weights = cfg.Weights
			c.NFQWeights = cfg.Weights
		}
		c.STFM = stfmCfg
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Scheduler:       pol,
		Unfairness:      wr.Unfairness,
		WeightedSpeedup: wr.WeightedSpeedup,
		HmeanSpeedup:    wr.HmeanSpeedup,
		SumIPC:          wr.SumIPC,
	}
	for i, th := range wr.Shared {
		res.Threads = append(res.Threads, ThreadResult{
			Benchmark:  th.Benchmark,
			IPC:        th.IPC,
			MCPI:       th.MCPI,
			Slowdown:   wr.Slowdowns[i],
			AloneIPC:   wr.AloneIPC[i],
			AloneMCPI:  wr.AloneMCPI[i],
			DRAMReads:  th.DRAMReads,
			DRAMWrites: th.DRAMWrites,
			RowHitRate: th.RowHitRate,
		})
	}
	return res, nil
}

// Compare runs the workload under several schedulers.
func (r *Runner) Compare(cfg Config, schedulers ...Scheduler) (map[Scheduler]*Result, error) {
	if len(schedulers) == 0 {
		schedulers = Schedulers()
	}
	out := make(map[Scheduler]*Result, len(schedulers))
	for _, s := range schedulers {
		c := cfg
		c.Scheduler = s
		res, err := r.Run(c)
		if err != nil {
			return nil, fmt.Errorf("stfm: %s: %w", s, err)
		}
		out[s] = res
	}
	return out, nil
}

// Benchmark describes one built-in workload profile.
type Benchmark struct {
	// Name identifies the profile (pass it in Config.Workload).
	Name string
	// MPKI is the benchmark's L2 misses per kilo-instruction.
	MPKI float64
	// RowHitRate is its alone-run row-buffer hit rate.
	RowHitRate float64
	// MemoryIntensive reports the paper's intensiveness class.
	MemoryIntensive bool
	// Desktop marks the Table 4 Windows application profiles.
	Desktop bool
}

// Benchmarks lists the built-in profiles: the 26 SPEC CPU2006
// personalities of the paper's Table 3 plus the four desktop
// applications of Table 4.
func Benchmarks() []Benchmark {
	var out []Benchmark
	for _, p := range trace.SPEC2006() {
		out = append(out, Benchmark{Name: p.Name, MPKI: p.MPKI, RowHitRate: p.RowHit, MemoryIntensive: p.Category.Intensive()})
	}
	for _, p := range trace.Desktop() {
		out = append(out, Benchmark{Name: p.Name, MPKI: p.MPKI, RowHitRate: p.RowHit, MemoryIntensive: p.Category.Intensive(), Desktop: true})
	}
	return out
}
