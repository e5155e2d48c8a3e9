package cpu

import (
	"fmt"

	"stfm/internal/trace"
)

// This file implements checkpoint support for the core model
// (DESIGN.md §17). The window is serialized entry by entry, oldest
// first; the open tail and the unissued list are stored as window
// indices (every unissued entry is in the window: it was created there
// and commit cannot retire an un-completed memory entry). In-flight
// loads need nothing beyond their issue sequence numbers: the memory
// ports complete them by seq (LoadDone), so a restored port reaches the
// restored window with nothing re-linked.

// WinEntrySnapshot is the serialized form of one window entry.
type WinEntrySnapshot struct {
	Compute int64  `json:"compute"`
	HasMem  bool   `json:"hasMem"`
	MemDone bool   `json:"memDone"`
	L2Miss  bool   `json:"l2Miss"`
	Issued  bool   `json:"issued"`
	Addr    uint64 `json:"addr"`
	Chain   int    `json:"chain"`
	Dep     bool   `json:"dep"`
	Seq     int64  `json:"seq"`
}

// CoreState is the serialized mutable state of a Core.
type CoreState struct {
	Window    []WinEntrySnapshot `json:"window"`
	Occupancy int                `json:"occupancy"`

	Fetching  bool         `json:"fetching"`
	CurAccess trace.Access `json:"curAccess"`
	GapLeft   int64        `json:"gapLeft"`
	// TailIdx is the window index of the open tail entry (always the
	// newest one), or -1.
	TailIdx    int  `json:"tailIdx"`
	StreamDone bool `json:"streamDone"`

	// Unissued holds window indices of loads awaiting issue, in retry
	// order.
	Unissued     []int `json:"unissued"`
	StoreBlocked bool  `json:"storeBlocked"`
	FetchedMem   bool  `json:"fetchedMem"`
	ChainBusy    []int `json:"chainBusy"`

	Committed int64 `json:"committed"`
	MemStall  int64 `json:"memStall"`
	StallAny  int64 `json:"stallAny"`
	Cycles    int64 `json:"cycles"`
	DRAMLoads int64 `json:"dramLoads"`
	IssueSeq  int64 `json:"issueSeq"`

	NextAt  int64 `json:"nextAt"`
	Settled int64 `json:"settled"`
	// Pure marks a pending pure-compute run: the cycles [Settled,
	// NextAt) are pure ticks still to be applied (Core.FlushIdle).
	Pure         bool `json:"pure,omitempty"`
	IdleHasWork  bool `json:"idleHasWork"`
	IdleMemStall bool `json:"idleMemStall"`
}

// SaveState captures the core's mutable state.
func (c *Core) SaveState() CoreState {
	st := CoreState{
		Window:       make([]WinEntrySnapshot, c.n),
		Occupancy:    c.occupancy,
		Fetching:     c.fetching,
		CurAccess:    c.curAccess,
		GapLeft:      c.gapLeft,
		TailIdx:      -1,
		StreamDone:   c.streamDone,
		StoreBlocked: c.storeBlocked,
		FetchedMem:   c.fetchedMem,
		ChainBusy:    append([]int(nil), c.chainBusy...),
		Committed:    c.committed,
		MemStall:     c.memStall,
		StallAny:     c.stallAny,
		Cycles:       c.cycles,
		DRAMLoads:    c.dramLoads,
		IssueSeq:     c.issueSeq,
		NextAt:       c.nextAt,
		Settled:      c.settled,
		Pure:         c.pure,
		IdleHasWork:  c.idleHasWork,
		IdleMemStall: c.idleMemStall,
	}
	for i := range st.Window {
		e := &c.ring[c.slot(i)]
		st.Window[i] = WinEntrySnapshot{
			Compute: e.compute, HasMem: e.hasMem, MemDone: e.memDone,
			L2Miss: e.l2Miss, Issued: e.issued, Addr: e.addr,
			Chain: e.chain, Dep: e.dep, Seq: e.seq,
		}
	}
	if c.tailOpen {
		st.TailIdx = c.n - 1
	}
	for _, slot := range c.unissued {
		pos := slot - c.head
		if pos < 0 {
			pos += len(c.ring)
		}
		st.Unissued = append(st.Unissued, pos)
	}
	return st
}

// RestoreState overwrites the core's mutable state with a snapshot.
// In-flight loads keep their issue sequence numbers, which is all their
// memory port needs to complete them.
func (c *Core) RestoreState(st CoreState) error {
	if len(st.Window) > len(c.ring) {
		return fmt.Errorf("cpu: snapshot window of %d entries exceeds the %d-entry window", len(st.Window), len(c.ring))
	}
	if st.TailIdx != -1 && st.TailIdx != len(st.Window)-1 {
		return fmt.Errorf("cpu: snapshot tail index %d is not the newest entry of a window of %d", st.TailIdx, len(st.Window))
	}
	for _, idx := range st.Unissued {
		if idx < 0 || idx >= len(st.Window) {
			return fmt.Errorf("cpu: snapshot unissued index %d out of range for window of %d", idx, len(st.Window))
		}
	}
	if st.Pure {
		// The pending run must fit the gap and the head entry, as
		// pureTicks guarantees, or FlushIdle would drive them negative.
		w, k := int64(c.cfg.Width), st.NextAt-st.Settled
		if st.TailIdx < 0 || k < 0 || k > st.GapLeft/w || len(st.Window) > 1 && k > st.Window[0].Compute/w {
			return fmt.Errorf("cpu: snapshot pure run of %d ticks does not fit the window and fetch state", k)
		}
	}
	for i, e := range st.Window {
		c.ring[i] = winEntry{
			compute: e.Compute, hasMem: e.HasMem, memDone: e.MemDone,
			l2Miss: e.L2Miss, issued: e.Issued, addr: e.Addr,
			chain: e.Chain, dep: e.Dep, seq: e.Seq,
		}
	}
	c.head, c.n = 0, len(st.Window)
	c.occupancy = st.Occupancy
	c.fetching = st.Fetching
	c.curAccess = st.CurAccess
	c.gapLeft = st.GapLeft
	c.tailOpen = st.TailIdx >= 0
	c.streamDone = st.StreamDone
	c.unissued = append(c.unissued[:0], st.Unissued...)
	c.storeBlocked = st.StoreBlocked
	c.fetchedMem = st.FetchedMem
	c.chainBusy = append([]int(nil), st.ChainBusy...)
	c.committed = st.Committed
	c.memStall = st.MemStall
	c.stallAny = st.StallAny
	c.cycles = st.Cycles
	c.dramLoads = st.DRAMLoads
	c.issueSeq = st.IssueSeq
	c.nextAt = st.NextAt
	c.settled = st.Settled
	c.pure = st.Pure
	c.idleHasWork = st.IdleHasWork
	c.idleMemStall = st.IdleMemStall
	return nil
}
