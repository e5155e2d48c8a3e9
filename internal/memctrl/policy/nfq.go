package policy

import (
	"fmt"
	"math"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
)

// NFQ implements network-fair-queueing memory scheduling, modeled on
// Nesbit et al.'s FQ-VFTF scheme [MICRO 2006] as configured by the
// paper's Section 6.3:
//
//   - Each thread has a virtual finish time (VFT) per bank. When a
//     request of thread i is serviced in bank b, the thread's VFT
//     advances by the request's uncontended access latency divided by
//     the thread's bandwidth share φ_i (1/N for equal shares): the
//     thread is modeled as owning a private memory system of speed φ_i.
//     The virtual start of a request is max(VFT, arrival time), which
//     is exactly what produces the idleness problem the paper analyzes
//     in Section 4 — a thread that ran alone accrues VFT ≈ N× wall
//     clock, so returning bursty threads get earlier deadlines.
//   - Ready column accesses are prioritized over ready row accesses
//     (first-ready), but only until an older row access to the same
//     bank has been bypassed for tRAS — the priority-inversion
//     prevention optimization of [22] Section 3.3 with the same
//     threshold the paper uses.
//   - Ties break oldest-first.
//
// Less depends on time only through each bank's inversion expiry at
// rowBlockedSince + tRAS, so its order epoch bumps in OnSchedule when a
// VFT or an inversion timer changes, and in BeginCycle when an expiry
// falls due. It is also an EventPolicy whose event is the earliest
// pending expiry, so an event-driven controller wakes when one can
// change a bank's winner.
type NFQ struct {
	view   memctrl.View
	timing dram.Timing
	shares []float64
	// vft[thread][channel*banks+bank] is the thread's virtual finish
	// time in that bank, in virtual CPU cycles.
	vft   [][]float64
	banks int
	// rowBlockedSince[channel*banks+bank] is the cycle an older row
	// access in the bank was first bypassed by a younger column
	// access; -1 means none is being bypassed.
	rowBlockedSince []int64
	now             int64
	// epoch is the order epoch (OrderEpoch); nextExpiry is the earliest
	// inversion expiry after now, or dram.Horizon when no timer runs.
	// Neither is checkpointed: a restored controller starts with no
	// memo to key, and RestoreState recomputes nextExpiry.
	epoch      uint64
	nextExpiry int64
}

// NewNFQ creates an NFQ policy for the controller behind view (which it
// asks for bypassed row accesses), for numThreads threads with equal
// bandwidth shares over the given channel/bank geometry.
func NewNFQ(view memctrl.View, numThreads, channels, banksPerChannel int, timing dram.Timing) *NFQ {
	p := &NFQ{
		view:            view,
		timing:          timing,
		shares:          make([]float64, numThreads),
		vft:             make([][]float64, numThreads),
		banks:           banksPerChannel,
		rowBlockedSince: make([]int64, channels*banksPerChannel),
		nextExpiry:      dram.Horizon,
	}
	for i := range p.shares {
		p.shares[i] = 1 / float64(numThreads)
		p.vft[i] = make([]float64, channels*banksPerChannel)
	}
	for i := range p.rowBlockedSince {
		p.rowBlockedSince[i] = -1
	}
	return p
}

// SetShares assigns each thread a fraction of DRAM bandwidth
// proportional to its weight, the mechanism NFQ uses to honor system
// software priorities (paper Section 7.5: a thread with weight w gets
// share w / Σweights). Weights come from user configuration (command
// lines, experiment sweeps), so validation failures — a length
// mismatch or a weight that is not positive and finite — are returned
// as errors, leaving the current shares untouched.
func (p *NFQ) SetShares(weights []float64) error {
	if len(weights) != len(p.shares) {
		return fmt.Errorf("policy: NFQ.SetShares got %d weights for %d threads", len(weights), len(p.shares))
	}
	var sum float64
	for _, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("policy: NFQ thread weight %v must be positive and finite", w)
		}
		sum += w
	}
	for i, w := range weights {
		p.shares[i] = w / sum
	}
	return nil
}

// Name implements memctrl.Policy.
func (*NFQ) Name() string { return "NFQ" }

// BeginCycle implements memctrl.Policy: it advances NFQ's clock and
// bumps the order epoch when an inversion expiry falls due.
func (p *NFQ) BeginCycle(now int64) {
	p.now = now
	if now >= p.nextExpiry {
		p.epoch++
		p.nextExpiry = p.pendingExpiry()
	}
}

// pendingExpiry returns the earliest inversion expiry after now, or
// dram.Horizon when none is pending.
func (p *NFQ) pendingExpiry() int64 {
	next := dram.Horizon
	for _, since := range p.rowBlockedSince {
		if at := since + p.timing.RAS; since >= 0 && at > p.now && at < next {
			next = at
		}
	}
	return next
}

// OrderEpoch implements memctrl.Policy.
func (p *NFQ) OrderEpoch() uint64 { return p.epoch }

// NextPolicyEvent implements memctrl.EventPolicy: the earliest pending
// inversion expiry. (A timer cleared before it expires leaves a stale,
// earlier event; it costs one wake and one epoch bump, never a missed
// expiry.)
func (p *NFQ) NextPolicyEvent(int64) int64 { return p.nextExpiry }

func (p *NFQ) bankIndex(c *memctrl.Candidate) int { return c.Channel*p.banks + c.Cmd.Bank }

// virtualStart is the candidate's priority key: the virtual time its
// service would begin on the thread's private virtual memory system.
func (p *NFQ) virtualStart(c *memctrl.Candidate) float64 {
	vft := p.vft[c.Req.Thread][p.bankIndex(c)]
	if arr := float64(c.Req.Arrival); arr > vft {
		return arr
	}
	return vft
}

func (p *NFQ) inversionExpired(c *memctrl.Candidate) bool {
	since := p.rowBlockedSince[p.bankIndex(c)]
	return since >= 0 && p.now-since >= p.timing.RAS
}

// Less implements memctrl.Policy.
func (p *NFQ) Less(a, b *memctrl.Candidate) bool {
	aCol := a.IsColumn() && !p.inversionExpired(a)
	bCol := b.IsColumn() && !p.inversionExpired(b)
	if aCol != bCol {
		return aCol
	}
	ka, kb := p.virtualStart(a), p.virtualStart(b)
	if ka != kb {
		return ka < kb
	}
	return a.Req.Older(b.Req)
}

// uncontendedLatency is the bank service latency NFQ charges a request
// against its thread's virtual clock, per the request's row-buffer
// outcome when it was first scheduled.
func (p *NFQ) uncontendedLatency(outcome dram.RowBufferOutcome) float64 {
	t := p.timing
	switch outcome {
	case dram.RowHit:
		return float64(t.HitLatency() + t.BurstCycles)
	case dram.RowClosed:
		return float64(t.ClosedLatency() + t.BurstCycles)
	default:
		return float64(t.ConflictLatency() + t.BurstCycles)
	}
}

// OnSchedule implements memctrl.Policy: advances the serviced thread's
// virtual finish time on column accesses and maintains the
// priority-inversion timers, bumping the order epoch on either change.
// It asks the view about the chosen bank only.
func (p *NFQ) OnSchedule(now int64, chosen *memctrl.Candidate) {
	bank := p.bankIndex(chosen)
	if !chosen.IsColumn() {
		if p.rowBlockedSince[bank] >= 0 {
			p.rowBlockedSince[bank] = -1
			p.epoch++
		}
		return
	}
	// Charge the serviced request to the thread's virtual clock.
	thr := chosen.Req.Thread
	start := p.virtualStart(chosen)
	p.vft[thr][bank] = start + p.uncontendedLatency(chosen.Req.FirstScheduledOutcome)/p.shares[thr]
	p.epoch++

	// If an older request is still waiting on a row access to this
	// bank, it has just been bypassed: start its inversion timer.
	if p.rowBlockedSince[bank] < 0 && p.view.OlderRowWaiting(chosen.Channel, chosen.Cmd.Bank, chosen.Req.ID) {
		p.rowBlockedSince[bank] = now
		p.nextExpiry = min(p.nextExpiry, now+p.timing.RAS)
	}
}

var (
	_ memctrl.Policy      = (*NFQ)(nil)
	_ memctrl.EventPolicy = (*NFQ)(nil)
)
