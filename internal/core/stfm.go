// Package core implements STFM, the Stall-Time Fair Memory scheduler —
// the primary contribution of Mutlu & Moscibroda (MICRO 2007).
//
// STFM estimates, for every thread, the memory-related slowdown
// S = Tshared / Talone: the ratio between the memory stall time the
// thread experiences sharing the DRAM system and the stall time it
// would have experienced running alone. Talone is not observable while
// the thread shares the system, so STFM maintains
// Talone = Tshared − Tinterference and estimates Tinterference — the
// extra stall time inflicted by other threads' requests — from the
// scheduling events it observes (Section 3.2.2 of the paper).
//
// Every DRAM cycle, if the ratio of the maximum to the minimum
// slowdown among threads with waiting requests exceeds the threshold
// α, the scheduler switches from throughput-oriented FR-FCFS rules to
// a fairness rule that prioritizes the most-slowed-down threads.
package core

import (
	"fmt"
	"math"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
)

// Config parameterizes the STFM scheduler. DefaultConfig matches the
// paper's evaluated configuration (Section 6.3).
type Config struct {
	// Alpha is the maximum tolerable unfairness Smax/Smin before the
	// fairness rule engages. The paper uses 1.10; system software can
	// set it (a very large value disables hardware fairness).
	Alpha float64
	// IntervalLength is the register reset period in CPU cycles
	// (2^24 in the paper), bounding slowdown estimates to the
	// thread's current phase.
	IntervalLength int64
	// Gamma scales the bank-waiting-parallelism divisor in the
	// interference update. The paper tuned γ = 1/2 empirically on its
	// simulator (a shift in hardware); on this substrate γ = 1 makes
	// the slowdown estimates track measured slowdowns best and is the
	// default — BenchmarkAblationGamma reproduces the sweep.
	Gamma float64
	// Weights are the per-thread priorities assigned by system
	// software; nil means all 1. A thread with weight w has its
	// measured slowdown S interpreted as 1 + (S−1)·w, so
	// higher-weight threads are prioritized (Section 3.3).
	Weights []float64
	// FixedPointSlowdowns quantizes slowdown values to the 8-bit
	// fixed-point registers of the paper's Table 1 hardware (4.4
	// format) instead of full float64 precision.
	FixedPointSlowdowns bool
	// DisableOwnThreadUpdate turns off the own-thread ExtraLatency
	// interference term (ablation).
	DisableOwnThreadUpdate bool
	// IgnoreBankParallelism makes interference updates charge full
	// command latency instead of amortizing across the victim's
	// waiting banks (ablation: the "too simplistic" estimate the
	// paper argues against in Section 3.2.2).
	IgnoreBankParallelism bool
	// RequestCountParallelism amortizes bank interference across the
	// victim's waiting requests instead of its distinct waiting banks
	// (the BankWaitingParallelism register of Table 1, the default).
	// Requests pipelined in a single bank drain serially, so the
	// bank-count divisor is the right amortization; this ablation
	// option exists because the paper's prose says "amortized across
	// those waiting requests" and the comparison is instructive
	// (BenchmarkAblationParallelismSource).
	RequestCountParallelism bool
}

// DefaultConfig returns the paper's STFM parameters — α=1.10,
// IntervalLength=2^24, equal weights — with γ=1 (re-tuned for this
// substrate; see Config.Gamma).
func DefaultConfig() Config {
	return Config{Alpha: 1.10, IntervalLength: 1 << 24, Gamma: 1.0}
}

// STFM is the stall-time fair memory scheduling policy. It implements
// memctrl.Policy and sits beside the baseline scheduling logic exactly
// as in the paper's Figure 4: the controller structure is unchanged
// and only priority assignment differs.
type STFM struct {
	cfg        Config
	view       memctrl.View
	timing     dram.Timing
	numThreads int
	banks      int // banks per channel

	// tshared reports each thread's cumulative memory stall cycles as
	// counted by its core ("the processor increases a counter when it
	// cannot commit instructions due to an L2-cache miss").
	tshared func(thread int) int64

	// Registers of Table 1.
	tsharedBase  []int64   // Tshared counter value at interval start
	tinterf      []float64 // Tinterference, in CPU cycles
	lastRow      [][]int32 // [thread][channel*banks+bank]; -1 = untouched
	weights      []float64
	intervalEnds int64
	// lastBankUser[channel*banks+bank] is the thread whose command
	// last used the bank (-1 = none): it distinguishes victims blocked
	// by other threads' bank state (charged — their request would have
	// been schedulable had they run alone) from victims blocked by
	// their own in-flight accesses (not charged).
	lastBankUser []int8

	// Per-cycle derived state (Section 5.2: the unfairness decision
	// uses the slowdowns computed in the previous DRAM cycle).
	slowdowns    []float64
	fairnessMode bool
	unfairness   float64
	tmax         int
	// orderKey/orderEpoch track the only mutable state Less consults:
	// whether the fairness rule is engaged and, if so, which thread
	// jumps the queue. The epoch bumps when that key changes, licensing
	// the controller's per-bank winner memo (memctrl.Policy.OrderEpoch) —
	// slowdowns shift every cycle, but the *ordering* usually does not.
	orderKey   int
	orderEpoch uint64

	// Diagnostics.
	fairnessCycles int64
	totalCycles    int64
	intervalResets int64
	busInterf      []float64
	bankInterf     []float64
	ownInterf      []float64
}

// InterferenceBreakdown returns the cumulative bus, bank and
// own-thread components of the thread's Tinterference estimate
// (diagnostics; own may be negative).
func (s *STFM) InterferenceBreakdown(thread int) (bus, bank, own float64) {
	return s.busInterf[thread], s.bankInterf[thread], s.ownInterf[thread]
}

// NewSTFM builds the scheduler. view is the controller it will run in
// (for the bank-parallelism registers and the interference victims'
// thread masks), geom/timing describe the DRAM system, and tshared
// supplies each thread's cumulative stall-cycle counter (pass the core
// model's counter; tests may pass synthetic functions).
func NewSTFM(cfg Config, view memctrl.View, geom dram.Geometry, timing dram.Timing, tshared func(thread int) int64) (*STFM, error) {
	if cfg.Alpha < 1 {
		return nil, fmt.Errorf("core: Alpha must be >= 1, got %v", cfg.Alpha)
	}
	if cfg.IntervalLength <= 0 {
		return nil, fmt.Errorf("core: IntervalLength must be positive, got %d", cfg.IntervalLength)
	}
	if cfg.Gamma <= 0 {
		return nil, fmt.Errorf("core: Gamma must be positive, got %v", cfg.Gamma)
	}
	if tshared == nil {
		return nil, fmt.Errorf("core: tshared source must not be nil")
	}
	n := view.NumThreads()
	if n > 64 {
		return nil, fmt.Errorf("core: at most 64 threads supported, got %d", n)
	}
	s := &STFM{
		cfg:         cfg,
		view:        view,
		timing:      timing,
		numThreads:  n,
		banks:       geom.BanksPerChannel,
		tshared:     tshared,
		tsharedBase: make([]int64, n),
		tinterf:     make([]float64, n),
		lastRow:     make([][]int32, n),
		weights:     make([]float64, n),
		slowdowns:   make([]float64, n),
		busInterf:   make([]float64, n),
		bankInterf:  make([]float64, n),
		ownInterf:   make([]float64, n),
	}
	s.lastBankUser = make([]int8, geom.Channels*geom.BanksPerChannel)
	for j := range s.lastBankUser {
		s.lastBankUser[j] = -1
	}
	for i := 0; i < n; i++ {
		s.lastRow[i] = make([]int32, geom.Channels*geom.BanksPerChannel)
		for j := range s.lastRow[i] {
			s.lastRow[i][j] = -1
		}
		s.weights[i] = 1
	}
	if cfg.Weights != nil {
		if len(cfg.Weights) != n {
			return nil, fmt.Errorf("core: got %d weights for %d threads", len(cfg.Weights), n)
		}
		for i, w := range cfg.Weights {
			if w <= 0 {
				return nil, fmt.Errorf("core: thread weights must be positive, got %v", w)
			}
			s.weights[i] = w
		}
	}
	s.intervalEnds = cfg.IntervalLength
	s.orderKey = -1
	return s, nil
}

// Name implements memctrl.Policy.
func (*STFM) Name() string { return "STFM" }

// Slowdown returns the scheduler's current slowdown estimate for the
// thread (weighted, as used for prioritization).
func (s *STFM) Slowdown(thread int) float64 { return s.slowdowns[thread] }

// Interference returns the thread's current Tinterference estimate in
// CPU cycles.
func (s *STFM) Interference(thread int) float64 { return s.tinterf[thread] }

// Unfairness returns the Smax/Smin ratio computed at the last DRAM
// cycle among threads with waiting requests (1 if fewer than two such
// threads).
func (s *STFM) Unfairness() float64 { return s.unfairness }

// CheckFinite verifies that every slowdown and interference register —
// the state the scheduler's decisions feed on — holds a finite value.
// The registers are built from divisions of accumulated cycle counts
// (Section 3.1), so a NaN or infinity means an accounting bug that
// would silently corrupt scheduling; the invariant self-checks in the
// run harness call this to fail loudly instead.
func (s *STFM) CheckFinite() error {
	for i := range s.slowdowns {
		if math.IsNaN(s.slowdowns[i]) || math.IsInf(s.slowdowns[i], 0) {
			return fmt.Errorf("stfm: thread %d slowdown register is %v", i, s.slowdowns[i])
		}
		if math.IsNaN(s.tinterf[i]) || math.IsInf(s.tinterf[i], 0) {
			return fmt.Errorf("stfm: thread %d interference register is %v", i, s.tinterf[i])
		}
	}
	if math.IsNaN(s.unfairness) || math.IsInf(s.unfairness, 0) {
		return fmt.Errorf("stfm: unfairness register is %v", s.unfairness)
	}
	return nil
}

// FairnessMode reports whether the fairness rule (Section 3.2.1) was
// engaged at the last DRAM cycle — i.e. unfairness exceeded α and the
// most slowed-down thread is jumping the queue. The telemetry sampler
// reads it to time-resolve what FairnessModeFraction aggregates.
func (s *STFM) FairnessMode() bool { return s.fairnessMode }

// FairnessModeFraction reports the fraction of DRAM cycles spent with
// the fairness rule engaged, a diagnostic for the α sensitivity study.
func (s *STFM) FairnessModeFraction() float64 {
	if s.totalCycles == 0 {
		return 0
	}
	return float64(s.fairnessCycles) / float64(s.totalCycles)
}

// IntervalResets reports how many times the per-thread registers were
// reset by the IntervalCounter.
func (s *STFM) IntervalResets() int64 { return s.intervalResets }

// BeginCycle implements memctrl.Policy: it handles the interval reset,
// recomputes every thread's slowdown from the Tshared and
// Tinterference registers, and decides between the FR-FCFS rule and
// the fairness rule for this DRAM cycle.
func (s *STFM) BeginCycle(now int64) {
	s.totalCycles++
	if now >= s.intervalEnds {
		s.resetInterval(now)
	}
	smax, smin := 0.0, math.Inf(1)
	s.tmax = -1
	for i := 0; i < s.numThreads; i++ {
		s.slowdowns[i] = s.computeSlowdown(i)
		if s.view.QueuedRequests(i) == 0 {
			continue
		}
		if s.slowdowns[i] > smax {
			smax = s.slowdowns[i]
			s.tmax = i
		}
		if s.slowdowns[i] < smin {
			smin = s.slowdowns[i]
		}
	}
	if smax == 0 || math.IsInf(smin, 1) {
		s.unfairness = 1
	} else {
		s.unfairness = smax / smin
	}
	s.fairnessMode = s.unfairness > s.cfg.Alpha
	if s.fairnessMode {
		s.fairnessCycles++
	}
	key := -1
	if s.fairnessMode {
		key = s.tmax // fairnessMode implies tmax >= 0 (some thread has smax > 0)
	}
	if key != s.orderKey {
		s.orderKey = key
		s.orderEpoch++
	}
}

// OrderEpoch implements memctrl.Policy: the comparator's only
// mutable inputs are the fairness-mode flag and the identity of the
// most slowed-down thread, both recomputed in BeginCycle.
func (s *STFM) OrderEpoch() uint64 { return s.orderEpoch }

// NextPolicyEvent implements memctrl.EventPolicy. STFM does per-cycle
// work in BeginCycle — the totalCycles/fairnessCycles accounting behind
// FairnessModeFraction, slowdown recomputation from the live Tshared
// counters, and the interval reset — so it must observe every DRAM
// clock edge: it requests the very next cycle and the controller rounds
// up to its next edge. Event-driven stepping therefore still skips the
// CPU cycles between edges under STFM, but never an edge itself.
func (s *STFM) NextPolicyEvent(now int64) int64 { return now + 1 }

func (s *STFM) resetInterval(now int64) {
	for i := 0; i < s.numThreads; i++ {
		s.tsharedBase[i] = s.tshared(i)
		s.tinterf[i] = 0
		for j := range s.lastRow[i] {
			s.lastRow[i][j] = -1
		}
	}
	for s.intervalEnds <= now {
		s.intervalEnds += s.cfg.IntervalLength
	}
	s.intervalResets++
}

// computeSlowdown evaluates S = Tshared / (Tshared − Tinterference)
// for the interval so far, applies the thread weight, and optionally
// quantizes to the 8-bit fixed-point register format.
func (s *STFM) computeSlowdown(thread int) float64 {
	tsh := float64(s.tshared(thread) - s.tsharedBase[thread])
	slow := 1.0
	if tsh > 0 {
		talone := tsh - s.tinterf[thread]
		if talone < 1 {
			talone = 1
		}
		slow = tsh / talone
	}
	// Thread weights: S' = 1 + (S−1)·Weight (Section 3.3).
	slow = 1 + (slow-1)*s.weights[thread]
	if s.cfg.FixedPointSlowdowns {
		slow = quantizeFixedPoint(slow)
	}
	return slow
}

// quantizeFixedPoint rounds to the 8-bit 4.4 fixed-point format of
// Table 1 (4 integer bits, 4 fractional bits, saturating).
func quantizeFixedPoint(v float64) float64 {
	q := math.Round(v * 16)
	if q > 255 {
		q = 255
	}
	if q < 16 { // slowdowns are >= 1 by construction
		q = 16
	}
	return q / 16
}

// Less implements memctrl.Policy: the scheduling rule of
// Section 3.2.1. Under the fairness rule only the most slowed-down
// thread Tmax jumps the queue (rule 2b-1); all other prioritization —
// and everything when unfairness is acceptable — follows the FR-FCFS
// rules: column-first, then oldest-first. Prioritizing by full
// slowdown order instead would starve the least slowed-down thread,
// whose estimated slowdown then *decays* (Tshared grows while no
// interference is observed for it), locking the starvation in.
func (s *STFM) Less(a, b *memctrl.Candidate) bool {
	if s.fairnessMode {
		am, bm := a.Req.Thread == s.tmax, b.Req.Thread == s.tmax
		if am != bm {
			return am
		}
	}
	if a.IsColumn() != b.IsColumn() {
		return a.IsColumn()
	}
	return a.Req.Older(b.Req)
}

// commandLatency is the service latency STFM attributes to a scheduled
// DRAM command when charging interference to waiting threads.
func (s *STFM) commandLatency(kind dram.CommandKind) float64 {
	switch kind {
	case dram.CmdActivate:
		return float64(s.timing.RCD)
	case dram.CmdPrecharge:
		return float64(s.timing.RP)
	default:
		return float64(s.timing.CL + s.timing.BurstCycles)
	}
}

// bankLatency is the uncontended bank access latency of a row-buffer
// outcome, used for the own-thread ExtraLatency term.
func (s *STFM) bankLatency(o dram.RowBufferOutcome) float64 {
	switch o {
	case dram.RowHit:
		return float64(s.timing.HitLatency())
	case dram.RowClosed:
		return float64(s.timing.ClosedLatency())
	default:
		return float64(s.timing.ConflictLatency())
	}
}

// OnSchedule implements memctrl.Policy: the Tinterference update rules
// of Section 3.2.2. The victims of each rule are thread masks the view
// computes from the pre-issue queues; only the bus rule (1a) looks
// beyond the scheduled bank, and it applies only to column accesses.
func (s *STFM) OnSchedule(now int64, chosen *memctrl.Candidate) {
	c := chosen.Req.Thread
	self := uint64(1) << uint(c)

	// 1a) Bus interference: a scheduled read/write occupies the data
	// bus for t_bus; every other thread with a ready read/write
	// command in another bank of this channel is delayed by it (a
	// same-bank victim's bank charge already subsumes the bus
	// occupancy of this command).
	// 1b) Bank interference: every other thread with a ready command
	// to the same bank must wait for this command; the delay is
	// amortized over the victim's BankWaitingParallelism. A thread is
	// delayed only if its command "could have been scheduled had the
	// thread run by itself": either the command is ready now, or it is
	// blocked by bank state another thread created (in the alone
	// system the bank would have held this thread's own row).
	chosenBank := chosen.Channel*s.banks + chosen.Cmd.Bank
	waiting, ready := s.view.BankWaiters(now, chosen.Channel, chosen.Cmd.Bank)
	if u := s.lastBankUser[chosenBank]; u >= 0 {
		waiting &^= 1 << uint(u)
	}
	bankVictims := (ready | waiting) &^ self
	var busVictims uint64
	if chosen.Cmd.Kind.IsColumn() {
		busVictims = s.view.ReadyColumnWaiters(now, chosen.Channel, chosen.Cmd.Bank) &^ self
	}
	lat := s.commandLatency(chosen.Cmd.Kind)
	for t := 0; t < s.numThreads; t++ {
		bit := uint64(1) << uint(t)
		if busVictims&bit != 0 {
			s.tinterf[t] += float64(s.timing.BurstCycles)
			s.busInterf[t] += float64(s.timing.BurstCycles)
		}
		if bankVictims&bit != 0 {
			div := 1.0
			if !s.cfg.IgnoreBankParallelism {
				wp := s.view.QueuedBanks(t)
				if s.cfg.RequestCountParallelism {
					wp = s.view.QueuedRequests(t)
				}
				if wp < 1 {
					wp = 1
				}
				div = s.cfg.Gamma * float64(wp)
			}
			s.tinterf[t] += lat / div
			s.bankInterf[t] += lat / div
		}
	}

	// 2) Own-thread interference: on the request's first scheduled
	// command, compare its row-buffer outcome in the shared system
	// with what it would have been had the thread run alone (tracked
	// via the per-thread per-bank LastRowAddress registers). The
	// difference — positive or negative (footnote 10) — is amortized
	// over the thread's BankAccessParallelism.
	s.lastBankUser[chosenBank] = int8(c)
	if chosen.First {
		bankIdx := chosenBank
		last := s.lastRow[c][bankIdx]
		row := int32(chosen.Req.Loc.Row)
		if !s.cfg.DisableOwnThreadUpdate && last >= 0 {
			aloneOutcome := dram.RowConflict
			if last == row {
				aloneOutcome = dram.RowHit
			}
			extra := s.bankLatency(chosen.Outcome) - s.bankLatency(aloneOutcome)
			if extra != 0 {
				bap := s.view.InService(c)
				if bap < 1 {
					bap = 1
				}
				s.tinterf[c] += extra / float64(bap)
				s.ownInterf[c] += extra / float64(bap)
			}
		}
		s.lastRow[c][bankIdx] = row
	}
}

var (
	_ memctrl.Policy      = (*STFM)(nil)
	_ memctrl.EventPolicy = (*STFM)(nil)
)
