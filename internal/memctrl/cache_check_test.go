package memctrl

import (
	"strings"
	"testing"

	"stfm/internal/dram"
)

// TestCheckInvariantsCatchesCacheCorruption plants each kind of
// scheduling-cache corruption the per-cycle oracle exists for — a
// winner memo naming the wrong request, a horizon one DRAM cycle late,
// a cleared occupied-bank bit — into a healthy controller, and requires
// CheckInvariants to report each one.
func TestCheckInvariantsCatchesCacheCorruption(t *testing.T) {
	c := newEdgeController(t, 4, 2)
	fillQueues(c, 0, 4)
	// Step event-driven until the state under test exists: a channel
	// holding a horizon its next edge would use, and a bank whose
	// reusable memo has a rival eligible request to be swapped in.
	now := int64(0)
	var ch, bank = -1, -1
	for i := 0; i < 10_000 && (ch < 0 || bank < 0); i++ {
		c.Tick(now)
		now = c.NextTickAt()
		ch, bank = heldHorizon(c, now), rivalMemo(c)
	}
	if ch < 0 || bank < 0 {
		t.Fatal("controller never held a horizon and a reusable memo at once")
	}
	if err := c.CheckInvariants(now); err != nil {
		t.Fatalf("healthy controller fails its invariants: %v", err)
	}

	m := &c.memo[bank]
	winner := m.winner
	for _, r := range c.queues[bank].reads {
		if r != winner {
			m.winner = r
			break
		}
	}
	err := c.CheckInvariants(now)
	m.winner = winner
	if err == nil || !strings.Contains(err.Error(), "winner memo") {
		t.Errorf("wrong memo winner: CheckInvariants = %v, want a winner-memo error", err)
	}

	h := c.chHorizon[ch]
	c.chHorizon[ch].at += c.cfg.Timing.CPUCyclesPerDRAMCycle
	err = c.CheckInvariants(now)
	c.chHorizon[ch] = h
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("horizon one DRAM cycle late: CheckInvariants = %v, want a horizon error", err)
	}

	mch, bit := bank/c.banksPer, uint64(1)<<uint(bank%c.banksPer)
	c.readMask[mch] &^= bit
	err = c.CheckInvariants(now)
	c.readMask[mch] |= bit
	if err == nil || !strings.Contains(err.Error(), "masks") {
		t.Errorf("cleared mask bit: CheckInvariants = %v, want a mask error", err)
	}
	if err := c.CheckInvariants(now); err != nil {
		t.Fatalf("restored controller fails its invariants: %v", err)
	}
}

// heldHorizon returns a channel with eligible work whose cached
// horizon the edge at now would use, or -1.
func heldHorizon(c *Controller, now int64) int {
	for ch, h := range c.chHorizon {
		if now < h.at && h.at < dram.Horizon && h.orderEp == c.policy.OrderEpoch() {
			return ch
		}
	}
	return -1
}

// rivalMemo returns the index of a bank whose winner memo the next scan
// would reuse and whose read queue holds another request, or -1.
func rivalMemo(c *Controller) int {
	for idx := range c.memo {
		ch := idx / c.banksPer
		draining, useWrites, _ := c.eligibility(ch)
		q, m := &c.queues[idx], &c.memo[idx]
		if len(q.reads) > 1 && m.qver == q.ver && m.orderEp == c.policy.OrderEpoch() &&
			m.bankEp == c.channels[ch].Bank(idx%c.banksPer).Epoch() &&
			m.draining == draining && m.useWrites == useWrites {
			return idx
		}
	}
	return -1
}
