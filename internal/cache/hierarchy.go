package cache

import (
	"fmt"

	"stfm/internal/memctrl"
)

// Hierarchy is one core's private L1+L2 cache stack in front of the
// shared DRAM controller, with MSHR-based non-blocking misses
// (same-line merging) and dirty writebacks. It implements the cpu
// package's Memory port, and is the controller's ReadConsumer for its
// thread: DRAM fills come back to it by line address.
type Hierarchy struct {
	thread int
	l1     *Cache
	l2     *Cache
	ctrl   *memctrl.Controller
	mshrs  int
	// loads completes the hierarchy's loads by issue sequence number:
	// the core it serves.
	loads LoadSink

	// outstanding holds the in-flight L2 misses (the MSHRs), keyed by
	// line, each with whether a store missed on the line (the fill then
	// installs it dirty).
	outstanding map[uint64]bool
	// waiters are the loads waiting on in-flight misses, in arrival
	// order. One list shared by all MSHRs is bounded by the core's
	// in-flight loads, so it stops growing once warm and a steady miss
	// stream allocates nothing.
	waiters     []waiter
	completions []completion
	// nextAt caches the earliest completion's due cycle (Horizon when
	// none is pending).
	nextAt    int64
	pendingWB []uint64

	dramLoads int64
}

// LoadSink completes loads by their issue sequence numbers; the core a
// hierarchy serves (*cpu.Core) is one.
type LoadSink interface {
	LoadDone(now, seq int64)
}

// waiter is a load, by issue sequence number, waiting on the in-flight
// miss of line.
type waiter struct {
	line uint64
	seq  int64
}

// completion is a pending cache-hit completion of the load with issue
// sequence number seq.
type completion struct {
	at  int64
	seq int64
}

// NewHierarchy builds a private L1/L2 pair for the given hardware
// thread over the shared controller. mshrs bounds outstanding L2
// misses (64 in the paper's Table 2).
func NewHierarchy(thread int, l1cfg, l2cfg Config, mshrs int, ctrl *memctrl.Controller) (*Hierarchy, error) {
	if mshrs <= 0 {
		return nil, fmt.Errorf("cache: mshrs must be positive, got %d", mshrs)
	}
	l1, err := New(l1cfg)
	if err != nil {
		return nil, fmt.Errorf("cache: L1: %w", err)
	}
	l2, err := New(l2cfg)
	if err != nil {
		return nil, fmt.Errorf("cache: L2: %w", err)
	}
	h := &Hierarchy{
		thread:      thread,
		l1:          l1,
		l2:          l2,
		ctrl:        ctrl,
		mshrs:       mshrs,
		outstanding: make(map[uint64]bool, mshrs),
		nextAt:      Horizon,
		// The retry queue holds writebacks the DRAM write buffer turned
		// away; sized like that buffer, it rarely needs to grow.
		pendingWB: make([]uint64, 0, ctrl.Config().WriteBufferCap),
	}
	ctrl.SetReadConsumer(thread, h)
	return h, nil
}

// SetLoadSink installs the consumer of the hierarchy's completed loads,
// the core it serves. Install it before the first Load.
func (h *Hierarchy) SetLoadSink(s LoadSink) { h.loads = s }

// L1 exposes the L1 cache for statistics.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 exposes the L2 cache for statistics.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// DRAMLoads returns the number of load requests sent to DRAM (L2
// misses, after MSHR merging).
func (h *Hierarchy) DRAMLoads() int64 { return h.dramLoads }

// OutstandingMisses returns the number of in-flight L2 misses.
func (h *Hierarchy) OutstandingMisses() int { return len(h.outstanding) }

// Load issues a cache-line read for the load with issue sequence
// number seq. If accepted, the hierarchy completes it exactly once,
// when the data is available, through the load sink; l2Miss reports
// whether the access goes to DRAM (the classification the core's stall
// accounting needs). A false return means MSHRs or the DRAM request
// buffer are exhausted; the caller should retry next cycle.
func (h *Hierarchy) Load(now int64, lineAddr uint64, seq int64) (accepted, l2Miss bool) {
	if h.l1.Access(lineAddr, false) {
		h.complete(now+h.l1.cfg.Latency, seq)
		return true, false
	}
	if h.l2.Access(lineAddr, false) {
		h.fillL1(lineAddr, false)
		h.complete(now+h.l2.cfg.Latency, seq)
		return true, false
	}
	return h.miss(now, lineAddr, false, seq), true
}

// complete schedules the cache-hit completion of load seq at cycle at.
func (h *Hierarchy) complete(at, seq int64) {
	h.completions = append(h.completions, completion{at: at, seq: seq})
	h.nextAt = min(h.nextAt, at)
}

// Store issues a cache-line write (write-allocate, write-back). Store
// misses fetch the line from DRAM but never block commit, so nothing
// waits on their completion. A false return means resources are
// exhausted and the access must be retried.
func (h *Hierarchy) Store(now int64, lineAddr uint64) (accepted bool) {
	if h.l1.Access(lineAddr, true) {
		return true
	}
	if h.l2.Access(lineAddr, true) {
		h.fillL1(lineAddr, true)
		return true
	}
	return h.miss(now, lineAddr, true, 0)
}

// miss sends an L2 miss to DRAM, or merges it into the line's
// outstanding MSHR. A load (write false) waits on the fill by its issue
// sequence number seq; a store waits on nothing.
func (h *Hierarchy) miss(now int64, lineAddr uint64, write bool, seq int64) bool {
	dirty, merge := h.outstanding[lineAddr]
	if !merge {
		if len(h.outstanding) >= h.mshrs || !h.ctrl.EnqueueRead(now, h.thread, lineAddr, 0) {
			return false
		}
		h.dramLoads++
	}
	h.outstanding[lineAddr] = dirty || write
	if !write {
		h.waiters = append(h.waiters, waiter{line: lineAddr, seq: seq})
	}
	return true
}

// ReadDone implements memctrl.ReadConsumer: a DRAM fill arrives for
// r.LineAddr. The hierarchy keys its MSHRs by line address and keeps
// nothing of r.
func (h *Hierarchy) ReadDone(now int64, r *memctrl.Request) { h.fill(now, r.LineAddr) }

// fill handles a DRAM fill arriving for lineAddr: it installs the line
// and completes the loads waiting on it, in arrival order.
func (h *Hierarchy) fill(now int64, lineAddr uint64) {
	write := h.outstanding[lineAddr]
	delete(h.outstanding, lineAddr)
	if victim, dirty := h.l2.Fill(lineAddr, write); dirty {
		h.writeback(now, victim)
	}
	h.fillL1(lineAddr, write)
	kept := h.waiters[:0]
	for _, w := range h.waiters {
		if w.line != lineAddr {
			kept = append(kept, w)
			continue
		}
		h.loads.LoadDone(now, w.seq)
	}
	h.waiters = kept
}

// fillL1 installs a line into L1, spilling dirty victims into L2.
func (h *Hierarchy) fillL1(lineAddr uint64, write bool) {
	victim, dirty := h.l1.Fill(lineAddr, write)
	if !dirty {
		return
	}
	if h.l2.Access(victim, true) {
		return
	}
	// The victim is no longer in L2 (non-inclusive corner); reinstall
	// it dirty, spilling L2's own victim to DRAM if needed.
	if v2, d2 := h.l2.Fill(victim, true); d2 {
		h.writeback(0, v2)
	}
}

func (h *Hierarchy) writeback(now int64, lineAddr uint64) {
	if !h.ctrl.EnqueueWrite(now, h.thread, lineAddr) {
		h.pendingWB = append(h.pendingWB, lineAddr)
	}
}

// Tick delivers due cache-hit completions and retries writebacks that
// found the DRAM write buffer full.
func (h *Hierarchy) Tick(now int64) {
	h.nextAt = Horizon
	for i := 0; i < len(h.completions); {
		c := h.completions[i]
		if c.at > now {
			h.nextAt = min(h.nextAt, c.at)
			i++
			continue
		}
		h.completions[i] = h.completions[len(h.completions)-1]
		h.completions = h.completions[:len(h.completions)-1]
		h.loads.LoadDone(now, c.seq)
	}
	// Retry in order, then drain the accepted prefix in place, so the
	// queue keeps its backing array under sustained back-pressure.
	sent := 0
	for sent < len(h.pendingWB) && h.ctrl.EnqueueWrite(now, h.thread, h.pendingWB[sent]) {
		sent++
	}
	if sent > 0 {
		h.pendingWB = h.pendingWB[:copy(h.pendingWB, h.pendingWB[sent:])]
	}
}

// Due reports whether a Tick at now can change anything: a completion
// is due, or refused writebacks wait and the controller ticked this
// cycle (ctrlTicked). A retry on any other cycle fails, since a
// write-buffer slot frees only when a write issues inside
// memctrl.Controller.Tick.
func (h *Hierarchy) Due(now int64, ctrlTicked bool) bool {
	return now >= h.nextAt || ctrlTicked && len(h.pendingWB) > 0
}

// Horizon is the "no event scheduled" sentinel returned when the
// hierarchy has no pending completion. The value matches dram.Horizon.
const Horizon = int64(1) << 62

// NextEventAt returns the hierarchy's event horizon: the earliest
// pending completion time, or Horizon. Blocked writebacks do not
// contribute — the write buffer only drains on controller events, which
// the controller's own horizon tracks, and a failed retry is side-effect
// free. The simulation queries it after ticking the cores, because
// cores schedule new cache-hit completions during their own tick —
// after this hierarchy's Tick for the cycle has already returned.
func (h *Hierarchy) NextEventAt() int64 { return h.nextAt }
