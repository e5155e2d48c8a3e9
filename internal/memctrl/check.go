package memctrl

import (
	"fmt"
	"math/bits"
	"strings"

	"stfm/internal/dram"
)

// This file is the controller's self-diagnosis surface: structural
// invariant checks the simulation harness runs opportunistically (see
// sim.Config.CheckInvariants) and a read-only state snapshot used to
// build forward-progress diagnostics (sim.StallError). Everything here
// observes — nothing mutates controller state — so attaching the checks
// to a run cannot change its schedule.

// EnqueuedReads returns the cumulative number of read requests the
// controller has accepted over its lifetime.
func (c *Controller) EnqueuedReads() int64 { return c.enqueuedReads }

// EnqueuedWrites returns the cumulative number of accepted writebacks.
func (c *Controller) EnqueuedWrites() int64 { return c.enqueuedWrites }

// InFlight returns the number of requests whose column access has
// issued and whose completion is pending, split by kind.
func (c *Controller) InFlight() (reads, writes int) {
	for _, r := range c.inFlight {
		if r.IsWrite {
			writes++
		} else {
			reads++
		}
	}
	return reads, writes
}

// ServicedReads returns the total reads completed across all threads.
func (c *Controller) ServicedReads() int64 {
	var n int64
	for i := range c.threadStats {
		n += c.threadStats[i].ReadsServiced
	}
	return n
}

// ServicedWrites returns the total writebacks completed across all
// threads.
func (c *Controller) ServicedWrites() int64 {
	var n int64
	for i := range c.threadStats {
		n += c.threadStats[i].WritesServiced
	}
	return n
}

// Work counts the controller's scheduling work since construction (a
// restored controller starts from zero). The counts are deterministic:
// one configuration gives the same counts on every host, which makes
// them comparable across commits where wall clocks are not.
type Work struct {
	// EdgesTicked counts the DRAM clock edges Tick processed.
	EdgesTicked int64 `json:"edges_ticked"`
	// ChannelScans counts channel arbitrations (scheduleChannel calls).
	ChannelScans int64 `json:"channel_scans"`
	// HorizonSkips counts channels passed over on a processed edge
	// because their cached horizon was still in the future.
	HorizonSkips int64 `json:"horizon_skips"`
	// CommandsIssued counts the DRAM commands the scans issued.
	CommandsIssued int64 `json:"commands_issued"`
	// MemoHits counts level-1 winners replayed from a bank's memo.
	MemoHits int64 `json:"memo_hits"`
	// MemoMisses counts full level-1 tournaments under a non-batch
	// policy.
	MemoMisses int64 `json:"memo_misses"`
	// EnqueueFolds counts reads folded into their bank's memo and the
	// channel's horizon at enqueue instead of invalidating the horizon.
	EnqueueFolds int64 `json:"enqueue_folds"`
}

// Work returns the controller's scheduling work counters.
func (c *Controller) Work() Work { return c.work }

// CheckInvariants verifies the controller's internal accounting and its
// scheduling caches as of cycle now, the next cycle the caller will
// simulate (every cycle before it has been processed):
//
//   - the queued-read/-write counters match the bank-queue contents,
//     every request sits in the bank queue its address maps to, and
//     per-thread queued counts match the queues;
//   - the incremental per-thread per-bank waiting index (queuedBank /
//     queuedBanks, backing the O(1) View.QueuedBanks query) matches a
//     from-scratch recount;
//   - every per-bank winner memo whose queue version is still current
//     points at a request actually present in that bank's queue;
//   - queue occupancy respects the configured buffer capacities;
//   - per-bank in-service counts are non-negative;
//   - request conservation: every accepted request is exactly one of
//     serviced, queued, or in flight (so every enqueued read completes
//     exactly once — it can neither be lost nor double-completed
//     without breaking the identity);
//   - request recycling: no request sits on the free list twice, and
//     none on it is still live — in a bank queue, the in-flight list, a
//     reservation slot, or a winner memo whose queue version is current;
//   - the scheduling caches (checkCaches): the occupied-bank masks, the
//     winner memos a scan would reuse, and the channel horizons agree
//     with a from-scratch recomputation.
//
// The identities hold at every instant between controller operations,
// so the check may run at arbitrary points of a simulation. It returns
// nil when all invariants hold.
func (c *Controller) CheckInvariants(now int64) error {
	reads, writes := 0, 0
	perThr := make([]int, len(c.queuedPerThr))
	qBank := make([][]int16, len(c.queuedBank))
	for t := range qBank {
		qBank[t] = make([]int16, len(c.queuedBank[t]))
	}
	for idx := range c.queues {
		ch, bank := idx/c.banksPer, idx%c.banksPer
		q := &c.queues[idx]
		reads += len(q.reads)
		for _, r := range q.reads {
			if r.Loc.Channel != ch || r.Loc.Bank != bank {
				return fmt.Errorf("memctrl: read %d for (ch %d, bank %d) filed under (ch %d, bank %d)",
					r.ID, r.Loc.Channel, r.Loc.Bank, ch, bank)
			}
			perThr[r.Thread]++
			qBank[r.Thread][idx]++
		}
		writes += len(q.writes)
		for _, r := range q.writes {
			if r.Loc.Channel != ch || r.Loc.Bank != bank {
				return fmt.Errorf("memctrl: write %d for (ch %d, bank %d) filed under (ch %d, bank %d)",
					r.ID, r.Loc.Channel, r.Loc.Bank, ch, bank)
			}
		}
	}
	if reads != c.queuedReads {
		return fmt.Errorf("memctrl: queuedReads counter %d, but %d reads queued", c.queuedReads, reads)
	}
	if writes != c.queuedWrites {
		return fmt.Errorf("memctrl: queuedWrites counter %d, but %d writes queued", c.queuedWrites, writes)
	}
	for t, n := range perThr {
		if n != c.queuedPerThr[t] {
			return fmt.Errorf("memctrl: thread %d queuedPerThr counter %d, but %d reads queued", t, c.queuedPerThr[t], n)
		}
	}
	for t := range qBank {
		banks := 0
		for idx, n := range qBank[t] {
			if n != c.queuedBank[t][idx] {
				return fmt.Errorf("memctrl: thread %d queuedBank[%d] counter %d, but %d reads waiting",
					t, idx, c.queuedBank[t][idx], n)
			}
			if n > 0 {
				banks++
			}
		}
		if banks != c.queuedBanks[t] {
			return fmt.Errorf("memctrl: thread %d queuedBanks counter %d, but %d banks have waiting reads",
				t, c.queuedBanks[t], banks)
		}
	}
	for idx := range c.memo {
		m := &c.memo[idx]
		if m.qver == 0 || m.qver != c.queues[idx].ver {
			continue // never stored, or membership changed since
		}
		q := &c.queues[idx]
		found := false
		for _, r := range q.reads {
			if r == m.winner {
				found = true
				break
			}
		}
		if !found {
			for _, r := range q.writes {
				if r == m.winner {
					found = true
					break
				}
			}
		}
		if !found {
			return fmt.Errorf("memctrl: bank index %d winner memo (qver %d) points at a request not in the bank queue", idx, m.qver)
		}
	}
	if c.queuedReads > c.cfg.ReadBufferCap {
		return fmt.Errorf("memctrl: %d queued reads exceed buffer capacity %d", c.queuedReads, c.cfg.ReadBufferCap)
	}
	if c.queuedWrites > c.cfg.WriteBufferCap {
		return fmt.Errorf("memctrl: %d queued writes exceed buffer capacity %d", c.queuedWrites, c.cfg.WriteBufferCap)
	}
	for t := range c.inServiceBank {
		for idx, n := range c.inServiceBank[t] {
			if n < 0 {
				return fmt.Errorf("memctrl: thread %d has negative in-service count %d in bank index %d", t, n, idx)
			}
		}
		if c.inServiceBanks[t] < 0 {
			return fmt.Errorf("memctrl: thread %d has negative in-service bank count %d", t, c.inServiceBanks[t])
		}
	}
	if err := c.checkFreeList(); err != nil {
		return err
	}
	if err := c.checkCaches(now); err != nil {
		return err
	}
	fr, fw := c.InFlight()
	if got := c.ServicedReads() + int64(c.queuedReads) + int64(fr); got != c.enqueuedReads {
		return fmt.Errorf("memctrl: read conservation violated: %d enqueued, but serviced+queued+inflight = %d",
			c.enqueuedReads, got)
	}
	if got := c.ServicedWrites() + int64(c.queuedWrites) + int64(fw); got != c.enqueuedWrites {
		return fmt.Errorf("memctrl: write conservation violated: %d enqueued, but serviced+queued+inflight = %d",
			c.enqueuedWrites, got)
	}
	return nil
}

// checkFreeList verifies that the recycled requests are disjoint from
// every structure that holds live ones.
func (c *Controller) checkFreeList() error {
	free := make(map[*Request]bool, len(c.free))
	for _, r := range c.free {
		if free[r] {
			return fmt.Errorf("memctrl: request %p is on the free list twice", r)
		}
		free[r] = true
	}
	for idx := range c.queues {
		q := &c.queues[idx]
		for _, list := range [2][]*Request{q.reads, q.writes} {
			for _, r := range list {
				if free[r] {
					return fmt.Errorf("memctrl: request %d on the free list is queued in bank index %d", r.ID, idx)
				}
			}
		}
		if m := &c.memo[idx]; m.qver != 0 && m.qver == q.ver && free[m.winner] {
			return fmt.Errorf("memctrl: bank index %d winner memo (qver %d) points at a request on the free list", idx, m.qver)
		}
	}
	for _, r := range c.inFlight {
		if free[r] {
			return fmt.Errorf("memctrl: request %d on the free list is in flight", r.ID)
		}
	}
	for ch := range c.reserved {
		for b, r := range c.reserved[ch] {
			if r != nil && free[r] {
				return fmt.Errorf("memctrl: request %d on the free list holds the reservation of (ch %d, bank %d)", r.ID, ch, b)
			}
		}
	}
	return nil
}

// checkCaches verifies the scheduling caches against a from-scratch
// recomputation that reads no memo and writes no request memo
// (freshWinner), with now as in CheckInvariants:
//
//   - each channel's occupied-bank masks match its non-empty bank
//     queues;
//   - every winner memo the next scan would reuse (valid under the
//     current order epoch and eligibility) names the winner of a fresh
//     level-1 tournament;
//   - no channel whose horizon the next edge would use skips an edge at
//     which a fresh winner is ready.
func (c *Controller) checkCaches(now int64) error {
	orderEp := c.policy.OrderEpoch()
	nextEdge := c.edgeCeil(now)
	for ch, channel := range c.channels {
		base := ch * c.banksPer
		var reads, writes uint64
		for b := 0; b < c.banksPer; b++ {
			if q := &c.queues[base+b]; len(q.reads) > 0 {
				reads |= 1 << uint(b)
			}
			if q := &c.queues[base+b]; len(q.writes) > 0 {
				writes |= 1 << uint(b)
			}
		}
		if reads != c.readMask[ch] || writes != c.writeMask[ch] {
			return fmt.Errorf("memctrl: channel %d bank masks are reads %#x, writes %#x, but the queues hold reads %#x, writes %#x",
				ch, c.readMask[ch], c.writeMask[ch], reads, writes)
		}
		draining, useWrites, _ := c.eligibility(ch)
		h := c.chHorizon[ch]
		horizonUsed := nextEdge < h.at && h.orderEp == orderEp
		for banks := c.occupied(ch, useWrites); banks != 0; banks &= banks - 1 {
			b := bits.TrailingZeros64(banks)
			w, readyAt := c.freshWinner(ch, b, draining, useWrites)
			q, m := &c.queues[base+b], &c.memo[base+b]
			if m.qver == q.ver && m.bankEp == channel.Bank(b).Epoch() && m.orderEp == orderEp &&
				m.draining == draining && m.useWrites == useWrites && m.winner != w {
				return fmt.Errorf("memctrl: (ch %d, bank %d) winner memo names request %d, a fresh tournament picks %d",
					ch, b, m.winner.ID, w.ID)
			}
			if at := c.edgeCeil(max(readyAt, now)); horizonUsed && at < h.at {
				return fmt.Errorf("memctrl: channel %d horizon %d skips edge %d, at which bank %d's winner (request %d) is ready",
					ch, h.at, at, b, w.ID)
			}
		}
	}
	return nil
}

// freshWinner runs bank b's level-1 tournament from scratch — every
// candidate's command and readiness straight from the DRAM channel, no
// memo read or written — and returns the winner and the cycle its next
// command becomes ready.
func (c *Controller) freshWinner(ch, b int, draining, useWrites bool) (*Request, int64) {
	channel := c.channels[ch]
	fresh := func(r *Request) (Candidate, int64) {
		cmd := channel.NextCommand(r.Loc.Bank, r.Loc.Row, r.IsWrite)
		return Candidate{Req: r, Cmd: cmd, Outcome: outcomeFor(cmd.Kind), Channel: ch, First: !r.Started},
			channel.CommandReadyAt(cmd)
	}
	var best Candidate
	var bestAt int64
	for _, list := range c.queues[ch*c.banksPer+b].eligible(useWrites) {
		for _, r := range list {
			cand, at := fresh(r)
			if r == c.reserved[ch][b] {
				return r, at // the reservation lock
			}
			if best.Req == nil || c.better(&cand, &best, draining) {
				best, bestAt = cand, at
			}
		}
	}
	return best.Req, bestAt
}

// RequestSnapshot is one queued or in-flight request in a Snapshot.
type RequestSnapshot struct {
	ID      uint64 // the request's arrival-order identity
	Thread  int    // issuing hardware thread
	Bank    int    // target bank within the request's channel
	Row     int    // target DRAM row
	Arrival int64  // DRAM cycle the request entered the buffer
	IsWrite bool   // writeback rather than demand read
	Started bool   // command issued; the request is in flight
}

// BankSnapshot is one bank's row-buffer state in a Snapshot.
type BankSnapshot struct {
	Open    bool // a row is open in the bank's row buffer
	OpenRow int  // which row, meaningful only when Open
}

// ChannelSnapshot is one channel's queues and bank states.
type ChannelSnapshot struct {
	Reads  []RequestSnapshot // queued reads, arrival order
	Writes []RequestSnapshot // buffered writebacks, arrival order
	Banks  []BankSnapshot    // row-buffer state per bank
}

// Snapshot is a point-in-time diagnostic dump of the controller's
// visible state, built for stall diagnostics and debugging output. It
// copies everything it reports, so holding one is safe after the
// simulation moves on.
type Snapshot struct {
	Cycle        int64             // DRAM cycle of the capture
	QueuedReads  int               // reads waiting across all channels
	QueuedWrites int               // writebacks buffered across all channels
	InFlight     int               // issued requests not yet completed
	Channels     []ChannelSnapshot // per-channel detail
}

// Snapshot captures the controller's queues and bank states as of the
// given cycle.
func (c *Controller) Snapshot(now int64) Snapshot {
	s := Snapshot{
		Cycle:        now,
		QueuedReads:  c.queuedReads,
		QueuedWrites: c.queuedWrites,
		InFlight:     len(c.inFlight),
	}
	snap := func(r *Request) RequestSnapshot {
		return RequestSnapshot{
			ID: r.ID, Thread: r.Thread, Bank: r.Loc.Bank, Row: r.Loc.Row,
			Arrival: r.Arrival, IsWrite: r.IsWrite, Started: r.Started,
		}
	}
	for ch := range c.channels {
		cs := ChannelSnapshot{}
		for b := 0; b < c.banksPer; b++ {
			q := &c.queues[ch*c.banksPer+b]
			for _, r := range q.reads {
				cs.Reads = append(cs.Reads, snap(r))
			}
		}
		for b := 0; b < c.banksPer; b++ {
			q := &c.queues[ch*c.banksPer+b]
			for _, r := range q.writes {
				cs.Writes = append(cs.Writes, snap(r))
			}
		}
		for b := 0; b < c.channels[ch].NumBanks(); b++ {
			bank := c.channels[ch].Bank(b)
			cs.Banks = append(cs.Banks, BankSnapshot{
				Open:    bank.State() == dram.BankOpen,
				OpenRow: bank.OpenRow(),
			})
		}
		s.Channels = append(s.Channels, cs)
	}
	return s
}

// String renders the snapshot compactly for diagnostic dumps: queue
// occupancy, per-channel bank states, and the first few requests of
// each queue (oldest wait first would require a sort; arrival order of
// the slice is shown as-is).
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "controller at cycle %d: %d reads queued, %d writes queued, %d in flight",
		s.Cycle, s.QueuedReads, s.QueuedWrites, s.InFlight)
	const maxShown = 8
	for ch, cs := range s.Channels {
		fmt.Fprintf(&b, "\n  channel %d banks:", ch)
		for bank, bs := range cs.Banks {
			if bs.Open {
				fmt.Fprintf(&b, " %d:row%d", bank, bs.OpenRow)
			} else {
				fmt.Fprintf(&b, " %d:closed", bank)
			}
		}
		for _, q := range []struct {
			kind string
			reqs []RequestSnapshot
		}{{"reads", cs.Reads}, {"writes", cs.Writes}} {
			kind, reqs := q.kind, q.reqs
			if len(reqs) == 0 {
				continue
			}
			fmt.Fprintf(&b, "\n  channel %d %s:", ch, kind)
			for i, r := range reqs {
				if i == maxShown {
					fmt.Fprintf(&b, " … (+%d more)", len(reqs)-maxShown)
					break
				}
				fmt.Fprintf(&b, " [id%d thr%d bank%d row%d arr%d]", r.ID, r.Thread, r.Bank, r.Row, r.Arrival)
			}
		}
	}
	return b.String()
}
