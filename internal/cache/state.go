package cache

import (
	"fmt"
	"sort"
)

// This file implements checkpoint support for the cache hierarchy
// (DESIGN.md §17). Cache content (tags, dirty bits, LRU timestamps) is
// serialized verbatim. MSHR waiters and pending hit completions are
// the issue sequence numbers of the loads they complete, so they
// serialize as they are and restore re-links nothing. Slice orders are
// preserved exactly: Tick delivers completions by slice scan with
// swap-removal and fill completes waiters in append order, so order is
// part of the schedule.

// LineSnapshot is the serialized state of one cache line.
type LineSnapshot struct {
	Tag   uint64 `json:"tag"`
	Valid bool   `json:"valid"`
	Dirty bool   `json:"dirty"`
	Used  int64  `json:"used"`
}

// CacheState is the serialized content of one cache level.
type CacheState struct {
	// Lines holds all ways of all sets, set-major (set 0's ways first).
	Lines  []LineSnapshot `json:"lines"`
	Clock  int64          `json:"clock"`
	Hits   int64          `json:"hits"`
	Misses int64          `json:"misses"`
}

// SaveState captures the cache's content and counters.
func (c *Cache) SaveState() CacheState {
	st := CacheState{Clock: c.clock, Hits: c.hits, Misses: c.misses}
	for _, set := range c.sets {
		for _, l := range set {
			st.Lines = append(st.Lines, LineSnapshot{Tag: l.tag, Valid: l.valid, Dirty: l.dirty, Used: l.used})
		}
	}
	return st
}

// RestoreState overwrites the cache's content with a snapshot taken on
// a cache of the same geometry.
func (c *Cache) RestoreState(st CacheState) error {
	want := len(c.sets) * c.cfg.Ways
	if len(st.Lines) != want {
		return fmt.Errorf("cache: snapshot has %d lines, cache has %d", len(st.Lines), want)
	}
	i := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			l := st.Lines[i]
			c.sets[s][w] = line{tag: l.Tag, valid: l.Valid, dirty: l.Dirty, used: l.Used}
			i++
		}
	}
	c.clock = st.Clock
	c.hits = st.Hits
	c.misses = st.Misses
	return nil
}

// MSHRSnapshot is the serialized state of one in-flight L2 miss.
type MSHRSnapshot struct {
	LineAddr uint64 `json:"lineAddr"`
	Write    bool   `json:"write"`
	// WaiterTags are the issue sequence numbers of the loads waiting on
	// this miss, in arrival order (the order fill completes them in).
	WaiterTags []int64 `json:"waiterTags"`
}

// CompletionSnapshot is the serialized state of one pending cache-hit
// completion: the load's issue sequence number (Tag) and due cycle.
type CompletionSnapshot struct {
	At  int64 `json:"at"`
	Tag int64 `json:"tag"`
}

// HierarchyState is the serialized mutable state of a Hierarchy.
type HierarchyState struct {
	L1 CacheState `json:"l1"`
	L2 CacheState `json:"l2"`
	// Outstanding is sorted by line address (map order is not part of
	// the schedule; every access is keyed).
	Outstanding []MSHRSnapshot `json:"outstanding"`
	// Completions preserves the pending-completion slice order, which
	// Tick's scan-and-swap delivery makes schedule-relevant.
	Completions []CompletionSnapshot `json:"completions"`
	PendingWB   []uint64             `json:"pendingWB"`
	DRAMLoads   int64                `json:"dramLoads"`
}

// SaveState captures the hierarchy's mutable state.
func (h *Hierarchy) SaveState() HierarchyState {
	st := HierarchyState{
		L1:        h.l1.SaveState(),
		L2:        h.l2.SaveState(),
		PendingWB: append([]uint64(nil), h.pendingWB...),
		DRAMLoads: h.dramLoads,
	}
	for addr, write := range h.outstanding {
		ms := MSHRSnapshot{LineAddr: addr, Write: write}
		for _, w := range h.waiters {
			if w.line == addr {
				ms.WaiterTags = append(ms.WaiterTags, w.seq)
			}
		}
		st.Outstanding = append(st.Outstanding, ms)
	}
	sort.Slice(st.Outstanding, func(i, j int) bool {
		return st.Outstanding[i].LineAddr < st.Outstanding[j].LineAddr
	})
	for _, c := range h.completions {
		st.Completions = append(st.Completions, CompletionSnapshot{At: c.at, Tag: c.seq})
	}
	return st
}

// RestoreState overwrites the hierarchy's mutable state with a
// snapshot. Waiters and pending completions restore as the issue
// sequence numbers they are; waiters of different lines may interleave
// differently than in the original run, which fill cannot observe (it
// completes one line's waiters, in their order).
func (h *Hierarchy) RestoreState(st HierarchyState) error {
	if err := h.l1.RestoreState(st.L1); err != nil {
		return fmt.Errorf("cache: L1: %w", err)
	}
	if err := h.l2.RestoreState(st.L2); err != nil {
		return fmt.Errorf("cache: L2: %w", err)
	}
	if len(st.Outstanding) > h.mshrs {
		return fmt.Errorf("cache: snapshot has %d outstanding misses, hierarchy allows %d", len(st.Outstanding), h.mshrs)
	}
	outstanding := make(map[uint64]bool, h.mshrs)
	var waiters []waiter
	for _, ms := range st.Outstanding {
		if _, dup := outstanding[ms.LineAddr]; dup {
			return fmt.Errorf("cache: snapshot has duplicate MSHR for line %#x", ms.LineAddr)
		}
		outstanding[ms.LineAddr] = ms.Write
		for _, seq := range ms.WaiterTags {
			waiters = append(waiters, waiter{line: ms.LineAddr, seq: seq})
		}
	}
	h.completions = make([]completion, 0, len(st.Completions))
	h.nextAt = Horizon
	for _, cs := range st.Completions {
		h.complete(cs.At, cs.Tag)
	}
	h.outstanding = outstanding
	h.waiters = waiters
	h.pendingWB = append([]uint64(nil), st.PendingWB...)
	h.dramLoads = st.DRAMLoads
	return nil
}
