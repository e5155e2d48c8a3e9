// Package sim composes the substrates — trace generators, cores,
// caches, the memory controller and the DRAM model — into the paper's
// experimental platform: an N-core CMP with private L1/L2 caches and a
// shared DRAM memory system, run under a selectable scheduling policy.
//
// The headline experiments drive the controller with generated L2 miss
// streams ("direct mode", the default), matching how the paper's
// workloads are characterized (Table 3's L2 MPKI / row-buffer hit
// rate); cache mode runs the full hierarchy for address traces.
package sim

import (
	"context"
	"fmt"
	"runtime/debug"

	"stfm/internal/cache"
	"stfm/internal/core"
	"stfm/internal/cpu"
	"stfm/internal/dram"
	"stfm/internal/memctrl"
	"stfm/internal/memctrl/policy"
	"stfm/internal/telemetry"
	"stfm/internal/trace"
)

// PolicyKind names one of the five evaluated schedulers.
type PolicyKind string

// The five scheduling policies the paper evaluates, plus PAR-BS (the
// authors' ISCA 2008 follow-up, included as the natural future-work
// extension; it is not part of the paper's comparisons).
const (
	PolicyFRFCFS    PolicyKind = "FR-FCFS"
	PolicyFCFS      PolicyKind = "FCFS"
	PolicyFRFCFSCap PolicyKind = "FRFCFS+Cap"
	PolicyNFQ       PolicyKind = "NFQ"
	PolicySTFM      PolicyKind = "STFM"
	PolicyPARBS     PolicyKind = "PAR-BS"
)

// AllPolicies lists the evaluated schedulers in the paper's plotting
// order.
func AllPolicies() []PolicyKind {
	return []PolicyKind{PolicyFRFCFS, PolicyFCFS, PolicyFRFCFSCap, PolicyNFQ, PolicySTFM}
}

// ExtendedPolicies lists every implemented scheduler: the paper's five
// plus the follow-up scheduler PAR-BS, which exists in the codebase but
// is not part of the paper's comparisons.
func ExtendedPolicies() []PolicyKind {
	return append(AllPolicies(), PolicyPARBS)
}

// Config parameterizes one simulation run.
//
// The json tags make Config submittable over the stfm-server API;
// Streams and Telemetry are process-local attachments and excluded from
// the encoding (and from Fingerprint).
type Config struct {
	// Policy selects the DRAM scheduler.
	Policy PolicyKind `json:"policy"`
	// Protocol selects a named DRAM timing/geometry pack (DDR2, DDR3,
	// DDR4, GDDR5, HBM — see dram.PresetTiming). Empty means the
	// paper's DDR2-800 baseline; explicit Geometry/Timing overrides
	// below still win over the preset. Because the DDR2 pack IS the
	// baseline, selecting it is bit-identical to selecting nothing.
	// HBM doubles the channel auto-scaling (ProtocolChannels).
	Protocol dram.Protocol `json:"protocol,omitempty"`
	// Channels is the number of DRAM channels; 0 auto-scales with the
	// core count as in the paper's Table 2 (1, 1, 2, 4 channels for
	// up to 2, 4, 8, 16 cores), doubled under the HBM protocol.
	Channels int `json:"channels"`
	// Geometry, if non-nil, overrides the default DRAM organization
	// (Table 5 sensitivity studies change banks and row-buffer size).
	Geometry *dram.Geometry `json:"geometry,omitempty"`
	// Timing, if non-nil, overrides the default DDR2-800 timing.
	Timing *dram.Timing `json:"timing,omitempty"`
	// InstrTarget is the per-thread instruction budget over which
	// statistics are collected. Threads that finish early keep
	// running (regenerating their access pattern) so the memory
	// system stays loaded until the slowest thread finishes, the
	// standard multiprogrammed methodology.
	InstrTarget int64 `json:"instrTarget"`
	// MinMisses extends sparse threads' measurement windows so each
	// observes at least roughly this many DRAM accesses: a thread's
	// instruction target becomes max(InstrTarget, MinMisses/MPKI*1000).
	// The paper's fixed 100M-instruction windows guarantee thousands
	// of misses even for povray; without this floor, short runs give
	// sparse benchmarks near-zero alone stall time and meaningless
	// slowdown ratios. 0 disables the floor.
	MinMisses int64 `json:"minMisses"`
	// MaxCycles caps the run; 0 derives a generous default. Threads
	// still short of InstrTarget at the cap are reported truncated.
	MaxCycles int64 `json:"maxCycles"`
	// Seed drives all trace generators.
	Seed uint64 `json:"seed"`
	// CoreCfg sizes the cores; zero value selects the paper's 3-wide,
	// 128-entry-window configuration.
	CoreCfg cpu.Config `json:"coreCfg"`
	// MSHRs bounds each core's outstanding L2 misses (64).
	MSHRs int `json:"mshrs"`
	// STFM configures the STFM policy (zero value = paper defaults).
	STFM core.Config `json:"stfm"`
	// CapValue sets FR-FCFS+Cap's cap (0 = the paper's 4) and PAR-BS's
	// per-thread per-bank marking cap (0 = policy.DefaultMarkingCap, 5).
	CapValue int `json:"capValue"`
	// NFQWeights, if non-nil, gives NFQ per-thread bandwidth shares
	// proportional to these weights (Section 7.5).
	NFQWeights []float64 `json:"nfqWeights,omitempty"`
	// ForkAtCycle, when positive, runs the simulation's warm-up prefix
	// under WarmupPolicy and switches to Policy at exactly this CPU
	// cycle, whether the system is run or stepped with Tick: a fresh
	// Policy instance takes over (the warm-up scheduler's registers are
	// NOT carried across the switch) and every derived scheduling cache
	// is invalidated. NewSystem builds both schedulers, so a target that
	// cannot be built fails construction, not the run at the switch. A
	// checkpoint taken at or after the switch carries the target and
	// resumes without switching again (TestForkEquivalence pins both
	// sides). 0 disables the switch.
	ForkAtCycle int64 `json:"forkAtCycle,omitempty"`
	// WarmupPolicy is the scheduler driving cycles [0, ForkAtCycle);
	// empty selects FR-FCFS. Only meaningful with ForkAtCycle > 0
	// (Validate rejects it otherwise).
	WarmupPolicy PolicyKind `json:"warmupPolicy,omitempty"`
	// UseCaches runs the full L1/L2 hierarchy; traces are then
	// interpreted as load/store addresses rather than miss streams.
	UseCaches bool `json:"useCaches"`
	// Streams, if non-nil, supplies each core's access stream directly
	// (e.g. a trace.FileStream for externally captured traces),
	// bypassing the synthetic generators. len(Streams) must equal the
	// workload size; profiles are then used only for labeling and the
	// MinMisses window scaling.
	Streams []trace.Stream `json:"-"`
	// DenseTick disables event-driven time advancement: Run ticks every
	// component on every CPU cycle instead of jumping over cycles in
	// which no component can act. The schedules are bit-identical (the
	// equivalence tests in internal/experiments assert it); the flag
	// exists as the differential-testing escape hatch and for debugging
	// with per-cycle traces.
	DenseTick bool `json:"denseTick"`
	// WatchdogCycles sets the forward-progress watchdog window in CPU
	// cycles: if no core commits an instruction and no DRAM command
	// issues for a full window, the run aborts with a *StallError
	// carrying a diagnostic dump instead of silently burning the cycle
	// budget. 0 selects DefaultWatchdogCycles; a negative value
	// disables the watchdog. The watchdog observes at fixed cycle
	// boundaries under both dense and event-driven stepping, so
	// schedules stay bit-identical with it on or off.
	WatchdogCycles int64 `json:"watchdogCycles"`
	// CheckInvariants enables opt-in self-checks at every watchdog
	// boundary and at the end of the run: controller request
	// conservation and queue accounting, MSHR occupancy bounds, and
	// finiteness of STFM's slowdown registers. Violations — and any
	// panic raised inside the run, such as a *dram.TimingError on an
	// illegal command — surface as a structured *SimError. The checks
	// are read-only, so checked runs stay bit-identical to unchecked
	// ones (the equivalence tests assert it).
	CheckInvariants bool `json:"checkInvariants"`
	// Telemetry, if non-nil, attaches the observability layer: the
	// collector's Tracer receives DRAM command and request lifecycle
	// events from the controller, and its Series receives interval
	// samples taken every Collector.SampleEvery DRAM cycles. Sampling
	// is an observer only — it never changes stepping decisions, so
	// schedules stay bit-identical with telemetry on or off (asserted
	// by TestTelemetryEquivalence). Nil costs a single pointer check
	// per instrumentation point.
	Telemetry *telemetry.Collector `json:"-"`
}

// DefaultConfig returns a baseline configuration for the given policy
// and core count: the channel count is seeded from the paper's
// core-count scaling (ChannelsFor), which matches what NewSystem would
// auto-derive for a workload of that size. Passing cores <= 0 leaves
// Channels at 0, deferring the scaling to the actual workload size at
// run time.
func DefaultConfig(policy PolicyKind, cores int) Config {
	cfg := Config{
		Policy:      policy,
		InstrTarget: 300_000,
		CoreCfg:     cpu.DefaultConfig(),
		MSHRs:       64,
		STFM:        core.DefaultConfig(),
		Seed:        1,
	}
	if cores > 0 {
		cfg.Channels = ChannelsFor(cores)
	}
	return cfg
}

// ChannelsFor returns the paper's channel scaling for a core count.
func ChannelsFor(cores int) int {
	switch {
	case cores <= 4:
		return 1
	case cores <= 8:
		return 2
	default:
		return 4
	}
}

// ProtocolChannels returns the channel auto-scaling for a protocol and
// core count: the paper's core-count scaling (ChannelsFor), doubled
// under HBM, whose stacks expose many narrow channels — the protocol's
// bandwidth comes from channel count, not per-channel burst rate.
func ProtocolChannels(p dram.Protocol, cores int) int {
	ch := ChannelsFor(cores)
	if p == dram.HBM {
		ch *= 2
	}
	return ch
}

// ThreadResult holds one thread's measured performance, frozen when it
// reached the instruction target.
//
// The json tags define the stable wire format the stfm-server API and
// its on-disk result cache both depend on; TestResultJSONRoundTrip pins
// it with a golden file. Fields deliberately never use omitempty so a
// new field is visible in the encoding and fails the golden until it is
// regenerated.
type ThreadResult struct {
	Benchmark      string `json:"benchmark"`      // benchmark profile name
	Instructions   int64  `json:"instructions"`   // instructions committed in the window
	Cycles         int64  `json:"cycles"`         // CPU cycles the window spanned
	MemStallCycles int64  `json:"memStallCycles"` // cycles stalled on DRAM
	// IPC is instructions per cycle over the measured window.
	IPC float64 `json:"ipc"`
	// MCPI is memory stall cycles per instruction — the numerator and
	// denominator of the paper's slowdown metric come from shared and
	// alone MCPI values.
	MCPI           float64 `json:"mcpi"`
	DRAMReads      int64   `json:"dramReads"`      // demand reads the thread completed
	DRAMWrites     int64   `json:"dramWrites"`     // writebacks serviced on its behalf
	RowHitRate     float64 `json:"rowHitRate"`     // fraction of reads first scheduled as row hits
	AvgReadLatency float64 `json:"avgReadLatency"` // mean read round trip in CPU cycles
	// P95ReadLatency / P99ReadLatency bound the tail of the thread's
	// read round trips (power-of-two bucket resolution); scheduling
	// starvation appears here long before it moves the average.
	P95ReadLatency int64 `json:"p95ReadLatency"`
	P99ReadLatency int64 `json:"p99ReadLatency"` // see P95ReadLatency
	// Truncated marks threads that hit MaxCycles before the
	// instruction target.
	Truncated bool `json:"truncated"`
}

// Result is the outcome of one simulation run. Its json encoding is
// part of the stfm-server wire format (see ThreadResult); the encoding
// round-trips exactly — encoding/json renders float64 values in
// shortest-exact form — so a Result written to the disk cache and read
// back is reflect.DeepEqual to the original.
type Result struct {
	Policy      PolicyKind     `json:"policy"`      // the scheduler that ran
	Threads     []ThreadResult `json:"threads"`     // per-thread outcomes, core order
	TotalCycles int64          `json:"totalCycles"` // CPU cycles until the last thread finished
	// BusUtilization is the data-bus busy fraction across channels.
	BusUtilization float64 `json:"busUtilization"`
	// STFMUnfairness and STFMFairnessFraction are STFM's own runtime
	// diagnostics (final estimated unfairness; fraction of cycles spent
	// in fairness mode). Zero unless the policy is STFM.
	STFMUnfairness       float64 `json:"stfmUnfairness"`
	STFMFairnessFraction float64 `json:"stfmFairnessFraction"` // see STFMUnfairness
}

// System is a fully wired CMP + DRAM simulation. Construct with
// NewSystem, then either call Run or step it manually with Tick for
// fine-grained inspection.
type System struct {
	cfg      Config
	profiles []trace.Profile
	targets  []int64
	ctrl     *memctrl.Controller
	cores    []*cpu.Core
	hier     []*cache.Hierarchy
	ports    []*directPort
	// gens holds the synthetic trace generators, core order (empty when
	// Config.Streams supplies the streams); policy is the scheduler
	// instance attached to the controller. Both are retained for
	// checkpointing (DESIGN.md §17).
	gens   []*trace.Generator
	policy memctrl.Policy
	stfm   *core.STFM
	// target is a fork-mode run's pending scheduler, installed at cycle
	// switchAt (the horizon sentinel once it is installed, or when the
	// run has no fork).
	target   memctrl.Policy
	switchAt int64
	now      int64
	frozen   []bool
	results  []ThreadResult

	// Telemetry state: tel is nil when no collector is attached;
	// nextSampleAt is the next sampling boundary in CPU cycles (the
	// horizon sentinel when sampling is off, so the per-step check
	// never fires).
	tel          *telemetry.Collector
	sampleEvery  int64
	nextSampleAt int64

	work Work
}

// Work counts the engine's stepping work since construction (a
// restored system starts from zero), next to the controller's
// memctrl.Work, which already counts policy BeginCycle calls as
// EdgesTicked. The counts are deterministic: one configuration gives
// the same counts on every host.
type Work struct {
	// Steps counts the cycles the engine executed (step calls); under
	// Config.DenseTick it equals the cycles simulated.
	Steps int64 `json:"steps"`
	// CoreTicks counts cpu.Core.Tick calls.
	CoreTicks int64 `json:"core_ticks"`
	// HierarchyTicks counts cache.Hierarchy.Tick calls.
	HierarchyTicks int64 `json:"hierarchy_ticks"`
}

// Work returns the engine's stepping work counters.
func (s *System) Work() Work { return s.work }

// NewSystem wires up a simulation of the given workload: one core per
// profile.
func NewSystem(cfg Config, profiles []trace.Profile) (*System, error) {
	n := len(profiles)
	if n == 0 {
		return nil, fmt.Errorf("sim: no workload profiles given")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	channels := cfg.Channels
	if channels == 0 {
		channels = ProtocolChannels(cfg.Protocol, n)
	}
	mcfg := memctrl.DefaultConfig(n, channels)
	if cfg.Protocol != "" {
		// Seed the memory system from the protocol pack; explicit
		// Geometry/Timing overrides below still replace it.
		tm, err := dram.PresetTiming(cfg.Protocol)
		if err != nil {
			return nil, err
		}
		g, err := dram.PresetGeometry(cfg.Protocol, channels)
		if err != nil {
			return nil, err
		}
		mcfg.Timing = tm
		mcfg.Geometry = g
	}
	if cfg.Geometry != nil {
		g := *cfg.Geometry
		g.Channels = channels
		mcfg.Geometry = g
	}
	if cfg.Timing != nil {
		mcfg.Timing = *cfg.Timing
	}

	s := &System{cfg: cfg, profiles: profiles}

	ctrl, err := memctrl.NewController(mcfg, nil)
	if err != nil {
		return nil, err
	}
	s.ctrl = ctrl

	policy, err := s.buildPolicy(cfg.Policy, mcfg)
	if err != nil {
		return nil, err
	}
	s.switchAt = horizon
	if cfg.ForkAtCycle > 0 {
		// A fork-mode run starts under the warm-up scheduler and holds
		// the target until the switch cycle.
		s.target, s.switchAt = policy, cfg.ForkAtCycle
		if policy, err = s.buildPolicy(cfg.warmupKind(), mcfg); err != nil {
			return nil, err
		}
	}
	s.policy = policy
	s.stfm, _ = policy.(*core.STFM)
	ctrl.SetPolicy(policy)

	if cfg.Streams != nil && len(cfg.Streams) != n {
		return nil, fmt.Errorf("sim: %d streams for %d cores", len(cfg.Streams), n)
	}
	for i, p := range profiles {
		var stream trace.Stream
		if cfg.Streams != nil {
			stream = cfg.Streams[i]
		} else {
			gen, err := trace.NewGenerator(p, mcfg.Geometry, i, cfg.Seed)
			if err != nil {
				return nil, err
			}
			s.gens = append(s.gens, gen)
			stream = gen
		}
		// Each core's memory port completes its loads by issue sequence
		// number (cpu.Core.LoadDone), so the port is wired to the core
		// once, here; the controller hands the port its finished reads.
		if cfg.UseCaches {
			h, err := cache.NewHierarchy(i, cache.L1Config(), cache.L2Config(), cfg.MSHRs, ctrl)
			if err != nil {
				return nil, err
			}
			c := cpu.New(i, cfg.CoreCfg, h, stream)
			h.SetLoadSink(c)
			s.hier = append(s.hier, h)
			s.cores = append(s.cores, c)
		} else {
			port := &directPort{ctrl: ctrl, thread: i, mshrs: cfg.MSHRs}
			port.core = cpu.New(i, cfg.CoreCfg, port, stream)
			ctrl.SetReadConsumer(i, port)
			s.ports = append(s.ports, port)
			s.cores = append(s.cores, port.core)
		}
	}
	s.nextSampleAt = horizon
	if cfg.Telemetry != nil {
		s.tel = cfg.Telemetry
		ctrl.AttachTelemetry(cfg.Telemetry.Tracer)
		if cfg.Telemetry.Series != nil && cfg.Telemetry.SampleEvery > 0 {
			s.sampleEvery = cfg.Telemetry.SampleEvery * mcfg.Timing.CPUCyclesPerDRAMCycle
			cfg.Telemetry.Series.EveryCPUCycles = s.sampleEvery
			s.nextSampleAt = s.sampleEvery
			// The run's cycle budget bounds the sample count, so the
			// series backing array can be sized once here and the
			// sampling path never reallocates mid-run.
			cfg.Telemetry.Series.Reserve(int(cfg.CycleBudget(profiles)/s.sampleEvery) + 1)
		}
	}
	s.frozen = make([]bool, n)
	s.results = make([]ThreadResult, n)
	s.targets = cfg.InstrTargets(profiles)
	s.setCoreTargets()
	return s, nil
}

// setCoreTargets gives each unfrozen core its instruction target and
// clears a frozen core's, so a core's pure-compute run stops short of
// the tick at which step's freeze check must fire.
func (s *System) setCoreTargets() {
	for i, c := range s.cores {
		t := s.targets[i]
		if s.frozen[i] {
			t = 0
		}
		c.SetTarget(t)
	}
}

// InstrTargets returns the per-thread instruction targets the run
// measures over: Config.InstrTarget (defaulted when zero) extended per
// thread by the MinMisses floor. Exposed so job-tracking layers (the
// stfm-server progress endpoint) can report committed instructions
// against the same denominator the run uses.
func (cfg Config) InstrTargets(profiles []trace.Profile) []int64 {
	instr := cfg.InstrTarget
	if instr <= 0 {
		instr = 300_000
	}
	out := make([]int64, len(profiles))
	for i, p := range profiles {
		out[i] = instr
		if cfg.MinMisses > 0 {
			if t := int64(float64(cfg.MinMisses) / p.MPKI * 1000); t > out[i] {
				out[i] = t
			}
		}
	}
	return out
}

// withDefaults fills in the zero-valued fields NewSystem defaults, so a
// config decoded with fields left out and the config its System runs
// compare equal.
func (cfg Config) withDefaults() Config {
	if cfg.InstrTarget <= 0 {
		cfg.InstrTarget = 300_000
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 64
	}
	if cfg.CoreCfg.Width == 0 {
		cfg.CoreCfg = cpu.DefaultConfig()
	}
	return cfg
}

// Simulates reports whether the system runs cfg over the named
// benchmarks: the same names in core order, and equal fingerprints once
// NewSystem's defaults are applied to cfg. A restored system answers
// for the run that took its snapshot, which is how the service refuses
// to resume a job from another job's checkpoint.
func (s *System) Simulates(cfg Config, benchmarks []string) bool {
	if len(benchmarks) != len(s.profiles) {
		return false
	}
	for i, p := range s.profiles {
		if p.Name != benchmarks[i] {
			return false
		}
	}
	return cfg.withDefaults().Fingerprint() == s.cfg.Fingerprint()
}

// CycleBudget returns the cycle cap RunContext enforces for this
// configuration and workload: MaxCycles when set, otherwise the derived
// default (80x the longest thread's instruction target; CPI rarely
// exceeds ~40 even for the most stalled thread in a 16-core mix, so 80x
// leaves comfortable slack).
func (cfg Config) CycleBudget(profiles []trace.Profile) int64 {
	if cfg.MaxCycles > 0 {
		return cfg.MaxCycles
	}
	longest := cfg.InstrTarget
	for _, t := range cfg.InstrTargets(profiles) {
		if t > longest {
			longest = t
		}
	}
	return longest * 80
}

// warmupKind resolves the scheduler driving a fork-mode run's warm-up
// prefix: Config.WarmupPolicy, defaulting to FR-FCFS.
func (cfg Config) warmupKind() PolicyKind {
	if cfg.WarmupPolicy != "" {
		return cfg.WarmupPolicy
	}
	return PolicyFRFCFS
}

func (s *System) buildPolicy(kind PolicyKind, mcfg memctrl.Config) (memctrl.Policy, error) {
	// The concrete policies live in memctrl/policy and internal/core;
	// they are constructed here so callers select them by name.
	geom := mcfg.Geometry
	switch kind {
	case PolicyFRFCFS, "":
		return policy.NewFRFCFS(), nil
	case PolicyFCFS:
		return policy.NewFCFS(), nil
	case PolicyFRFCFSCap:
		return policy.NewFRFCFSCap(s.ctrl, s.cfg.CapValue, geom.Channels, geom.BanksPerChannel), nil
	case PolicyNFQ:
		p := policy.NewNFQ(s.ctrl, len(s.profiles), geom.Channels, geom.BanksPerChannel, mcfg.Timing)
		if s.cfg.NFQWeights != nil {
			if err := p.SetShares(s.cfg.NFQWeights); err != nil {
				return nil, err
			}
		}
		return p, nil
	case PolicyPARBS:
		return policy.NewPARBS(s.ctrl, geom.Channels, s.cfg.CapValue), nil
	case PolicySTFM:
		// Each zero parameter takes its paper default; every other field
		// (weights, ablation switches) is kept as given.
		stfmCfg, def := s.cfg.STFM, core.DefaultConfig()
		if stfmCfg.Alpha == 0 {
			stfmCfg.Alpha = def.Alpha
		}
		if stfmCfg.IntervalLength == 0 {
			stfmCfg.IntervalLength = def.IntervalLength
		}
		if stfmCfg.Gamma == 0 {
			stfmCfg.Gamma = def.Gamma
		}
		return core.NewSTFM(stfmCfg, s.ctrl, geom, mcfg.Timing, s.tshared)
	default:
		return nil, fmt.Errorf("sim: unknown policy %q", kind)
	}
}

// switchToTarget installs the fork target NewSystem built, the
// fork-mode switch at ForkAtCycle. The target starts from its initial
// registers — nothing the warm-up scheduler accumulated is carried over
// — and the controller's cached scheduling state is normalized
// (memctrl.Controller.SwitchPolicy). The STFM diagnostics follow the
// target: finish reports zero unless the target is STFM.
func (s *System) switchToTarget() {
	s.policy, s.target, s.switchAt = s.target, nil, horizon
	s.stfm, _ = s.policy.(*core.STFM)
	s.ctrl.SwitchPolicy(s.now, s.policy)
}

// tshared is the per-thread cumulative stall counter the cores
// communicate to STFM (Section 5.1). The flush settles any lazily
// skipped idle cycles before the read, so the policy sees exactly the
// value a dense-ticked run would (cycles strictly before the current
// one — the controller runs before the cores each cycle).
func (s *System) tshared(thread int) int64 {
	c := s.cores[thread]
	c.FlushIdle(s.now)
	return c.MemStallCycles()
}

// Controller exposes the memory controller for inspection.
func (s *System) Controller() *memctrl.Controller { return s.ctrl }

// Core exposes core i for inspection.
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// Hierarchy exposes core i's cache hierarchy (nil unless UseCaches).
func (s *System) Hierarchy(i int) *cache.Hierarchy {
	if s.hier == nil {
		return nil
	}
	return s.hier[i]
}

// STFM returns the STFM policy instance, or nil for other policies.
func (s *System) STFM() *core.STFM { return s.stfm }

// Now returns the current CPU cycle.
func (s *System) Now() int64 { return s.now }

// horizon is the shared "no event" sentinel (dram.Horizon, cpu.Horizon
// and cache.Horizon all have this value).
const horizon = int64(1) << 62

// Tick advances the whole system one CPU cycle, switching a fork-mode
// run to its target first when the cycle is the switch cycle.
func (s *System) Tick() {
	if s.now >= s.switchAt {
		s.switchToTarget()
	}
	s.step()
}

// step advances the system one CPU cycle and returns the earliest
// future cycle at which any component can act — the event horizon Run
// jumps to when it exceeds the new current cycle. Order matters for
// exactness: the controller retires reads first (their loads complete
// in the window before cores commit), hierarchies deliver cache-hit
// completions next, cores run last; the controller's and
// hierarchies' horizons are re-read after the cores run because core
// activity (enqueues, cache hits) schedules new events for them.
func (s *System) step() int64 {
	now := s.now
	s.work.Steps++
	if now == s.nextSampleAt {
		// Snapshot state as of the start of this cycle, before any
		// component acts (nextSampleAt is the horizon sentinel when
		// sampling is off, so this branch never fires then).
		s.takeSample(now)
	}
	ctrlTicked := s.cfg.DenseTick || now >= s.ctrl.NextTickAt()
	if ctrlTicked {
		s.ctrl.Tick(now)
	}
	for _, h := range s.hier {
		// A hierarchy with no completion due and no writeback retry
		// that can succeed would tick as a no-op (cache.Hierarchy.Due).
		if s.cfg.DenseTick || h.Due(now, ctrlTicked) {
			s.work.HierarchyTicks++
			h.Tick(now)
		}
	}
	next := int64(horizon)
	for i, c := range s.cores {
		// A core whose next required tick is still in the future is
		// parked or in a pure-compute run: skip it entirely — the
		// bookkeeping its Ticks would have performed is applied in
		// closed form (cpu.Core.FlushIdle) when the core next runs or
		// its counters are read, and its NextAt bounds the jump. NextAt
		// is re-read here, after the controller and hierarchy acted,
		// because the loads they complete pull it to the current cycle.
		// Dense runs tick unconditionally — they are the oracle the
		// gating is checked against.
		if s.cfg.DenseTick || c.NextAt() <= now {
			s.work.CoreTicks++
			if n := c.Tick(now); n < next {
				next = n
			}
		} else if n := c.NextAt(); n < next {
			next = n
		}
		if !s.frozen[i] && (c.Committed() >= s.targets[i] || c.Done()) {
			// Reaching the instruction target — or draining a finite
			// trace — ends the thread's measurement window.
			s.freeze(i, now+1, false)
		}
	}
	s.now++
	if s.cfg.DenseTick {
		return s.now
	}
	if n := s.ctrl.NextTickAt(); n < next {
		next = n
	}
	for _, h := range s.hier {
		if n := h.NextEventAt(); n < next {
			next = n
		}
	}
	return next
}

// takeSample snapshots live scheduler and DRAM state into the attached
// time series: per-thread slowdown estimates from STFM's registers,
// stall counters, buffer occupancies, bus busy time, and per-bank
// row-buffer outcomes. The snapshot reflects all cycles strictly before
// now, which is identical whether the engine stepped densely through
// now or jumped over it — the telemetry equivalence test pins this.
func (s *System) takeSample(now int64) {
	s.nextSampleAt += s.sampleEvery
	ser := s.tel.Series
	smp := telemetry.Sample{
		Cycle:        now,
		QueuedReads:  s.ctrl.QueuedReads(),
		QueuedWrites: s.ctrl.QueuedWrites(),
		StallCycles:  make([]int64, len(s.cores)),
		Committed:    make([]int64, len(s.cores)),
	}
	for i, c := range s.cores {
		c.FlushIdle(now)
		smp.StallCycles[i] = c.MemStallCycles()
		smp.Committed[i] = c.Committed()
	}
	if s.stfm != nil {
		smp.Slowdowns = make([]float64, len(s.cores))
		for i := range s.cores {
			smp.Slowdowns[i] = s.stfm.Slowdown(i)
		}
		smp.Unfairness = s.stfm.Unfairness()
		smp.FairnessMode = s.stfm.FairnessMode()
	}
	for i := 0; i < s.ctrl.Config().Geometry.Channels; i++ {
		smp.BusBusyCycles += s.ctrl.Channel(i).Stats().BusyCycles
	}
	smp.BankRowHits, smp.BankRowClosed, smp.BankRowConflicts = s.ctrl.BankOutcomes()
	ser.Append(smp)
}

// Telemetry returns the collector attached via Config.Telemetry (nil
// when the run is untelemetered).
func (s *System) Telemetry() *telemetry.Collector { return s.tel }

// freeze snapshots thread i's measured window.
func (s *System) freeze(i int, now int64, truncated bool) {
	c := s.cores[i]
	st := s.ctrl.ThreadStats(i)
	r := ThreadResult{
		Benchmark:      s.profiles[i].Name,
		Instructions:   c.Committed(),
		Cycles:         now,
		MemStallCycles: c.MemStallCycles(),
		DRAMReads:      st.ReadsServiced,
		DRAMWrites:     st.WritesServiced,
		RowHitRate:     st.RowHitRate(),
		AvgReadLatency: st.AvgReadLatency(),
		P95ReadLatency: st.ReadLatency.Percentile(0.95),
		P99ReadLatency: st.ReadLatency.Percentile(0.99),
		Truncated:      truncated,
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	if r.Instructions > 0 {
		r.MCPI = float64(r.MemStallCycles) / float64(r.Instructions)
	}
	s.results[i] = r
	s.frozen[i] = true
	c.SetTarget(0)
}

// Run advances the system until every thread has reached the
// instruction target (or MaxCycles elapse) and returns the results.
func (s *System) Run() (*Result, error) { return s.RunContext(context.Background()) }

// DefaultWatchdogCycles is the forward-progress watchdog window used
// when Config.WatchdogCycles is zero. Legitimate no-progress windows
// are bounded by DRAM latencies — thousands of CPU cycles even with
// refresh enabled — so a two-million-cycle window (0.5 ms of simulated
// time at 4 GHz) cannot false-positive while still aborting a
// livelocked run orders of magnitude before a default cycle budget.
const DefaultWatchdogCycles = 2_000_000

// RunContext is Run with cooperative cancellation: the context is
// polled at event-horizon boundaries (near-zero cost — no extra work
// inside the stepped window), so schedules are bit-identical to Run's.
// When ctx is canceled or its deadline passes, RunContext freezes the
// unfinished threads as Truncated and returns the partial Result
// together with an error wrapping ErrCanceled or ErrDeadline.
//
// The run is additionally supervised by the forward-progress watchdog
// (Config.WatchdogCycles) and, when Config.CheckInvariants is set, by
// the invariant self-checks; see those fields for the failure modes.
// Any panic raised inside the run — e.g. a *dram.TimingError on an
// illegal DRAM command — is recovered and returned as a *SimError
// instead of crashing the caller. Manual stepping via Tick is not
// protected; only RunContext installs the recovery.
func (s *System) RunContext(ctx context.Context) (res *Result, err error) {
	return s.runLoop(ctx, nil)
}

// runLoop is the shared engine behind RunContext and RunCheckpointed.
// When sink is non-nil, the loop additionally observes checkpoint
// boundaries every sink.Every CPU cycles: event-horizon jumps are
// clamped to them (exactly like watchdog boundaries, so the schedule is
// unchanged) and a snapshot is written at each one. Snapshotting is
// read-only, so checkpointed runs stay bit-identical to plain ones —
// TestRunCheckpointedEquivalence pins it.
func (s *System) runLoop(ctx context.Context, sink *CheckpointSink) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &SimError{Cycle: s.now, Check: "panic", Err: panicErr(v), Stack: debug.Stack()}
		}
	}()
	maxCycles := s.cfg.CycleBudget(s.profiles)
	done := ctx.Done()
	// Watchdog state: the next boundary to observe at, and the progress
	// counters seen at the previous boundary. Boundaries are fixed
	// cycle numbers, and event-driven jumps are clamped to them below,
	// so dense and event runs observe at identical cycles and the
	// (read-only) observation can never perturb the schedule.
	wdEvery := s.cfg.WatchdogCycles
	if wdEvery == 0 {
		wdEvery = DefaultWatchdogCycles
	}
	nextWatchdogAt := int64(horizon)
	if wdEvery > 0 {
		nextWatchdogAt = s.now + wdEvery
	}
	lastCommitted, lastCommands := s.progressCounters()
	// Checkpoint boundaries are fixed cycle numbers like watchdog
	// boundaries; a write failure disables further snapshots rather than
	// aborting a run that is otherwise healthy.
	nextCkptAt := int64(horizon)
	if sink != nil && sink.Every > 0 {
		nextCkptAt = s.now + sink.Every
	}
	for s.now < maxCycles && !s.allFrozen() {
		if done != nil {
			select {
			case <-done:
				return s.finish(), ctxErr(ctx, s.now)
			default:
			}
		}
		if s.now >= s.switchAt {
			// The fork-mode switch is one more fixed cycle boundary, taken
			// before the checkpoint check: a snapshot at the switch cycle
			// captures the target policy, so it restores without switching
			// again (see Restore).
			s.switchToTarget()
		}
		if s.now >= nextCkptAt {
			if data, cerr := s.Checkpoint(); cerr != nil {
				nextCkptAt = horizon
			} else if werr := sink.Write(s.now, data); werr != nil {
				nextCkptAt = horizon
			} else {
				nextCkptAt = s.now + sink.Every
			}
		}
		if s.now >= nextWatchdogAt {
			committed, commands := s.progressCounters()
			if committed == lastCommitted && commands == lastCommands {
				return s.finish(), s.stallError(wdEvery)
			}
			lastCommitted, lastCommands = committed, commands
			if s.cfg.CheckInvariants {
				if ierr := s.checkInvariants(); ierr != nil {
					return s.finish(), ierr
				}
			}
			nextWatchdogAt += wdEvery
		}
		next := s.step()
		if next <= s.now || s.allFrozen() {
			continue
		}
		// Every component is quiescent until next: jump there, bulk-
		// accounting the cores' stall cycles for the skipped window.
		// Clamping to maxCycles keeps truncated runs bit-identical to
		// dense ticking (which would spin out the same dead cycles);
		// clamping to the watchdog boundary makes the watchdog observe
		// quiescent windows too — an all-idle livelock must not jump
		// straight past every boundary to the cycle cap.
		if next > maxCycles {
			next = maxCycles
		}
		if next > nextWatchdogAt {
			next = nextWatchdogAt
		}
		if next > nextCkptAt {
			next = nextCkptAt
		}
		if next > s.switchAt {
			next = s.switchAt
		}
		// Sampling boundaries inside the quiescent window still get
		// their snapshots: jump to each boundary and sample there,
		// exactly as a dense-ticked run would observe it — takeSample
		// flushes the cores' lazy idle accounting up to the boundary.
		// The components themselves stay untouched: a quiescent window
		// costs the sampler a few appends, never a component tick. (A
		// boundary equal to next is taken by the following step's
		// start-of-cycle check.)
		for s.nextSampleAt < next {
			s.now = s.nextSampleAt
			s.takeSample(s.now)
		}
		s.now = next
	}
	res = s.finish()
	if s.cfg.CheckInvariants {
		if ierr := s.checkInvariants(); ierr != nil {
			return res, ierr
		}
	}
	if serr := s.streamErr(); serr != nil {
		return res, serr
	}
	return res, nil
}

// finish freezes any still-running thread as truncated and assembles
// the Result for the cycles simulated so far. It is the single exit
// path for completed, truncated, and aborted runs alike, so partial
// results carry the same metrics as complete ones.
func (s *System) finish() *Result {
	// Settle every core's lazy idle accounting through the final cycle:
	// freezes below and post-run counter reads (diagnostics, MCPI-based
	// estimators) must see fully accounted stall counters.
	for _, c := range s.cores {
		c.FlushIdle(s.now)
	}
	for i := range s.cores {
		if !s.frozen[i] {
			s.freeze(i, s.now, true)
		}
	}
	res := &Result{
		Policy:      s.cfg.Policy,
		Threads:     append([]ThreadResult(nil), s.results...),
		TotalCycles: s.now,
	}
	var busy, total int64
	for i := 0; i < s.ctrl.Config().Geometry.Channels; i++ {
		busy += s.ctrl.Channel(i).Stats().BusyCycles
		total += s.now
	}
	if total > 0 {
		res.BusUtilization = float64(busy) / float64(total)
	}
	if s.stfm != nil {
		res.STFMUnfairness = s.stfm.Unfairness()
		res.STFMFairnessFraction = s.stfm.FairnessModeFraction()
	}
	return res
}

// progressCounters sums the system's two forward-progress signals:
// instructions committed across all cores and DRAM commands issued
// across all channels. Any legitimate activity — a compute-bound core,
// a write drain, a precharge — moves at least one of them. Each core is
// flushed first: one skipped through a pure-compute run has committed
// instructions its counter does not show yet.
func (s *System) progressCounters() (committed, commands int64) {
	for _, c := range s.cores {
		c.FlushIdle(s.now)
		committed += c.Committed()
	}
	for i := 0; i < s.ctrl.Config().Geometry.Channels; i++ {
		st := s.ctrl.Channel(i).Stats()
		commands += st.Activates + st.Precharges + st.Reads + st.Writes
	}
	return committed, commands
}

// stallError assembles the watchdog's diagnostic dump.
func (s *System) stallError(window int64) *StallError {
	e := &StallError{Cycle: s.now, Window: window, Queues: s.ctrl.Snapshot(s.now)}
	for i, c := range s.cores {
		d := ThreadDiag{
			Benchmark:   s.profiles[i].Name,
			Committed:   c.Committed(),
			StallCycles: c.MemStallCycles(),
		}
		if s.ports != nil {
			d.Outstanding = s.ports[i].outstanding
		} else if s.hier != nil {
			d.Outstanding = s.hier[i].OutstandingMisses()
		}
		if s.stfm != nil {
			d.Slowdown = s.stfm.Slowdown(i)
		}
		e.Threads = append(e.Threads, d)
	}
	return e
}

// checkInvariants runs the opt-in self-checks: controller accounting
// and request conservation, MSHR occupancy bounds, and STFM register
// finiteness. All checks are read-only.
func (s *System) checkInvariants() error {
	if err := s.ctrl.CheckInvariants(s.now); err != nil {
		return &SimError{Cycle: s.now, Check: "memctrl", Err: err}
	}
	for i, p := range s.ports {
		if p.outstanding < 0 || p.outstanding > p.mshrs {
			return &SimError{Cycle: s.now, Check: "mshr",
				Err: fmt.Errorf("thread %d has %d outstanding misses (MSHRs=%d)", i, p.outstanding, p.mshrs)}
		}
	}
	for i, h := range s.hier {
		if n := h.OutstandingMisses(); n < 0 || n > s.cfg.MSHRs {
			return &SimError{Cycle: s.now, Check: "mshr",
				Err: fmt.Errorf("thread %d hierarchy has %d outstanding misses (MSHRs=%d)", i, n, s.cfg.MSHRs)}
		}
	}
	if s.stfm != nil {
		if err := s.stfm.CheckFinite(); err != nil {
			return &SimError{Cycle: s.now, Check: "stfm", Err: err}
		}
	}
	return nil
}

// streamErr surfaces errors from externally supplied trace streams
// after the run drains them. A failing stream otherwise looks like a
// short but clean trace: Next returns ok=false, the core finishes, and
// corrupt input silently yields a plausible result.
func (s *System) streamErr() error {
	for i, st := range s.cfg.Streams {
		if es, ok := st.(interface{ Err() error }); ok {
			if err := es.Err(); err != nil {
				return &StreamError{Thread: i, Benchmark: s.profiles[i].Name, Err: err}
			}
		}
	}
	return nil
}

func (s *System) allFrozen() bool {
	for _, f := range s.frozen {
		if !f {
			return false
		}
	}
	return true
}

// Run is the one-call entry point: build a system for the workload and
// run it to completion.
func Run(cfg Config, profiles []trace.Profile) (*Result, error) {
	return RunContext(context.Background(), cfg, profiles)
}

// RunContext is Run with cooperative cancellation; see
// System.RunContext for the cancellation, watchdog, and self-check
// semantics.
func RunContext(ctx context.Context, cfg Config, profiles []trace.Profile) (*Result, error) {
	s, err := NewSystem(cfg, profiles)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

// directPort adapts the memory controller as a core's Memory port for
// miss-stream mode: every load is by construction an L2 miss. Each read
// carries its load's issue sequence number as the request tag, and the
// port, as the thread's ReadConsumer, completes the load by it.
type directPort struct {
	ctrl        *memctrl.Controller
	core        *cpu.Core
	thread      int
	mshrs       int
	outstanding int
}

// Load implements cpu.Memory.
func (p *directPort) Load(now int64, lineAddr uint64, seq int64) (accepted, l2Miss bool) {
	if p.outstanding >= p.mshrs || !p.ctrl.EnqueueRead(now, p.thread, lineAddr, seq) {
		return false, true
	}
	p.outstanding++
	return true, true
}

// ReadDone implements memctrl.ReadConsumer.
func (p *directPort) ReadDone(now int64, r *memctrl.Request) {
	p.outstanding--
	p.core.LoadDone(now, r.Tag)
}

// Store implements cpu.Memory.
func (p *directPort) Store(now int64, lineAddr uint64) bool {
	return p.ctrl.EnqueueWrite(now, p.thread, lineAddr)
}
