package memctrl

import (
	"fmt"
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

// CheckInvariants verifies the controller's internal accounting:
//
//   - the queued-read/-write counters (global and per-channel) match
//     the bank-queue contents, every request sits in the bank queue its
//     address maps to, and per-thread queued counts match the queues;
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
//     without breaking the identity).
//
// The identities hold at every instant between controller operations,
// so the check may run at arbitrary points of a simulation. It returns
// nil when all invariants hold.
func (c *Controller) CheckInvariants() error {
	reads, writes := 0, 0
	perThr := make([]int, len(c.queuedPerThr))
	chReads := make([]int, len(c.chReads))
	chWrites := make([]int, len(c.chWrites))
	qBank := make([][]int16, len(c.queuedBank))
	for t := range qBank {
		qBank[t] = make([]int16, len(c.queuedBank[t]))
	}
	for idx := range c.queues {
		ch, bank := idx/c.banksPer, idx%c.banksPer
		q := &c.queues[idx]
		reads += len(q.reads)
		chReads[ch] += len(q.reads)
		for _, r := range q.reads {
			if r.Loc.Channel != ch || r.Loc.Bank != bank {
				return fmt.Errorf("memctrl: read %d for (ch %d, bank %d) filed under (ch %d, bank %d)",
					r.ID, r.Loc.Channel, r.Loc.Bank, ch, bank)
			}
			perThr[r.Thread]++
			qBank[r.Thread][idx]++
		}
		writes += len(q.writes)
		chWrites[ch] += len(q.writes)
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
	for ch := range chReads {
		if chReads[ch] != c.chReads[ch] {
			return fmt.Errorf("memctrl: channel %d chReads counter %d, but %d reads queued", ch, c.chReads[ch], chReads[ch])
		}
		if chWrites[ch] != c.chWrites[ch] {
			return fmt.Errorf("memctrl: channel %d chWrites counter %d, but %d writes queued", ch, c.chWrites[ch], chWrites[ch])
		}
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
