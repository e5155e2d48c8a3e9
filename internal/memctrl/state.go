package memctrl

import (
	"fmt"
	"sort"

	"stfm/internal/dram"
)

// This file implements checkpoint support for the controller
// (DESIGN.md §17). The serialized state is the minimal mutable set:
// every request (queued and in-flight), the incremental accounting is
// rebuilt during re-insertion, and the scheduling memos (bank winner
// memos, request timing memos, cached channel horizons) are NOT
// serialized — a restored controller starts with all memos invalid,
// exactly like a fresh one, and recomputes them on the next edge, which
// is schedule-neutral by the same argument that makes the memos sound
// in the first place (they only replay answers a scan would produce).
//
// Request queues are restored in ID order, which may differ from the
// original slices' swap-scrambled order; arbitration is scan-order
// independent (every policy comparator is a total order ending in the
// ID tie-break — pinned by TestPolicySelectionIsScanOrderIndependent),
// and completeFinished sorts due completions by (CompleteAt, ID), so
// queue order is not part of the schedule.

// StatefulPolicy is implemented by scheduling policies that carry
// mutable state a checkpoint must capture. Policies not implementing it
// (FR-FCFS, FCFS) are stateless and restore as freshly constructed.
type StatefulPolicy interface {
	// SaveState serializes the policy's mutable registers.
	SaveState() ([]byte, error)
	// RestoreState overwrites the policy's mutable registers from a
	// SaveState payload produced by a policy of the same configuration.
	// Implementations must validate shapes and return an error rather
	// than panic on corrupt input.
	RestoreState(data []byte) error
}

// HistogramState is the serialized form of a LatencyHistogram.
type HistogramState struct {
	// Buckets holds the power-of-two latency bucket counts.
	Buckets []int64 `json:"buckets"`
	// Count is the total number of recorded samples.
	Count int64 `json:"count"`
	// Max is the largest recorded latency.
	Max int64 `json:"max"`
}

// SaveState captures the histogram's buckets and counters.
func (h *LatencyHistogram) SaveState() HistogramState {
	return HistogramState{
		Buckets: append([]int64(nil), h.buckets[:]...),
		Count:   h.count,
		Max:     h.max,
	}
}

// RestoreState overwrites the histogram from a snapshot.
func (h *LatencyHistogram) RestoreState(st HistogramState) error {
	if len(st.Buckets) != latencyBuckets {
		return fmt.Errorf("memctrl: histogram snapshot has %d buckets, want %d", len(st.Buckets), latencyBuckets)
	}
	copy(h.buckets[:], st.Buckets)
	h.count = st.Count
	h.max = st.Max
	return nil
}

// ThreadStatsSnapshot is the serialized form of one thread's service
// statistics.
type ThreadStatsSnapshot struct {
	// ReadsServiced counts completed demand reads.
	ReadsServiced int64 `json:"readsServiced"`
	// WritesServiced counts completed writebacks.
	WritesServiced int64 `json:"writesServiced"`
	// TotalReadLatency accumulates read round trips in CPU cycles.
	TotalReadLatency int64 `json:"totalReadLatency"`
	// RowHits counts reads first scheduled as row hits.
	RowHits int64 `json:"rowHits"`
	// RowClosed counts reads first scheduled against a closed row.
	RowClosed int64 `json:"rowClosed"`
	// RowConflicts counts reads first scheduled as row conflicts.
	RowConflicts int64 `json:"rowConflicts"`
	// ReadLatency is the read round-trip histogram.
	ReadLatency HistogramState `json:"readLatency"`
}

// RequestState is the serialized form of one outstanding request.
// Loc is recomputed from LineAddr at restore (Geometry.Map is pure);
// the scheduling memo fields are transient and start invalid.
type RequestState struct {
	// ID is the request's global arrival-order identity.
	ID uint64 `json:"id"`
	// Thread is the issuing hardware thread.
	Thread int `json:"thread"`
	// LineAddr is the cache-line address; Loc is recomputed from it.
	LineAddr uint64 `json:"lineAddr"`
	// IsWrite marks writebacks (no consumer sees their completion).
	IsWrite bool `json:"isWrite"`
	// Tag is the consumer's handle for a read (Request.Tag); it is what
	// lets a restored read reach its consumer with nothing re-linked.
	Tag int64 `json:"tag"`
	// Arrival is the CPU cycle the request entered the buffer.
	Arrival int64 `json:"arrival"`
	// Started marks requests whose first DRAM command has issued.
	Started bool `json:"started"`
	// CASIssued discriminates in-flight requests (column access issued,
	// completion pending at CompleteAt) from queued ones.
	CASIssued bool `json:"casIssued"`
	// FirstOutcome is the row-buffer outcome of the request's first
	// scheduling (dram.RowBufferOutcome).
	FirstOutcome uint8 `json:"firstOutcome"`
	// CompleteAt is the completion cycle of an in-flight request.
	CompleteAt int64 `json:"completeAt"`
}

func snapshotRequest(r *Request) RequestState {
	return RequestState{
		ID: r.ID, Thread: r.Thread, LineAddr: r.LineAddr, IsWrite: r.IsWrite, Tag: r.Tag,
		Arrival: r.Arrival, Started: r.Started, CASIssued: r.CASIssued,
		FirstOutcome: uint8(r.FirstScheduledOutcome), CompleteAt: r.CompleteAt,
	}
}

// ControllerState is the serialized mutable state of a Controller.
type ControllerState struct {
	// Requests holds every live request — queued and in-flight — in
	// ascending ID order.
	Requests []RequestState `json:"requests"`
	// Reserved[ch*banksPerChannel+bank] is the ID of the request whose
	// activate opened the bank's current row (0 = none).
	Reserved []uint64 `json:"reserved"`
	// NextID is the next request ID to allocate.
	NextID uint64 `json:"nextID"`
	// EnqueuedReads counts reads ever accepted (conservation check).
	EnqueuedReads int64 `json:"enqueuedReads"`
	// EnqueuedWrites counts writes ever accepted.
	EnqueuedWrites int64 `json:"enqueuedWrites"`
	// Draining holds each channel's sticky write-drain flag.
	Draining []bool `json:"draining"`
	// NextWake is the controller's next required tick (its horizon).
	NextWake int64 `json:"nextWake"`
	// ThreadStats holds per-thread service statistics, thread order.
	ThreadStats []ThreadStatsSnapshot `json:"threadStats"`
	// Channels holds the DRAM channel states, channel order.
	Channels []dram.ChannelSnapshot `json:"channels"`
}

// SaveState captures the controller's mutable state.
func (c *Controller) SaveState() ControllerState {
	st := ControllerState{
		Reserved:       make([]uint64, len(c.queues)),
		NextID:         c.nextID,
		EnqueuedReads:  c.enqueuedReads,
		EnqueuedWrites: c.enqueuedWrites,
		Draining:       append([]bool(nil), c.draining...),
		NextWake:       c.nextWake,
	}
	for _, q := range c.queues {
		for _, r := range q.reads {
			st.Requests = append(st.Requests, snapshotRequest(r))
		}
		for _, r := range q.writes {
			st.Requests = append(st.Requests, snapshotRequest(r))
		}
	}
	for _, r := range c.inFlight {
		st.Requests = append(st.Requests, snapshotRequest(r))
	}
	sort.Slice(st.Requests, func(i, j int) bool { return st.Requests[i].ID < st.Requests[j].ID })
	for ch := range c.reserved {
		for b, r := range c.reserved[ch] {
			if r != nil {
				st.Reserved[ch*c.banksPer+b] = r.ID
			}
		}
	}
	for t := range c.threadStats {
		s := &c.threadStats[t]
		st.ThreadStats = append(st.ThreadStats, ThreadStatsSnapshot{
			ReadsServiced:    s.ReadsServiced,
			WritesServiced:   s.WritesServiced,
			TotalReadLatency: s.TotalReadLatency,
			RowHits:          s.RowHits,
			RowClosed:        s.RowClosed,
			RowConflicts:     s.RowConflicts,
			ReadLatency:      s.ReadLatency.SaveState(),
		})
	}
	for _, ch := range c.channels {
		st.Channels = append(st.Channels, ch.SaveState())
	}
	return st
}

// RestoreState overwrites a freshly constructed controller's mutable
// state with a snapshot taken on a controller of the same
// configuration. Restored reads carry their consumer tags, so they
// reach the thread's ReadConsumer like any other read; nothing is
// re-linked. Every incremental accounting structure (queue counts,
// occupied-bank masks, per-thread bank-parallelism registers,
// write-drain occupancy) is rebuilt during re-insertion; scheduling
// memos start invalid and the work counters at zero.
func (c *Controller) RestoreState(st ControllerState) error {
	if len(st.Draining) != len(c.draining) {
		return fmt.Errorf("memctrl: snapshot has %d drain flags, controller has %d channels", len(st.Draining), len(c.draining))
	}
	if len(st.ThreadStats) != len(c.threadStats) {
		return fmt.Errorf("memctrl: snapshot has %d thread stats, controller has %d threads", len(st.ThreadStats), len(c.threadStats))
	}
	if len(st.Channels) != len(c.channels) {
		return fmt.Errorf("memctrl: snapshot has %d channels, controller has %d", len(st.Channels), len(c.channels))
	}
	if len(st.Reserved) != len(c.queues) {
		return fmt.Errorf("memctrl: snapshot has %d reservation slots, controller has %d", len(st.Reserved), len(c.queues))
	}
	byID := make(map[uint64]*Request, len(st.Requests))
	var queuedReads, queuedWrites int
	var lastID uint64
	for _, rs := range st.Requests {
		if rs.ID == 0 || rs.ID <= lastID {
			return fmt.Errorf("memctrl: snapshot request IDs not strictly increasing at %d", rs.ID)
		}
		lastID = rs.ID
		if rs.ID > st.NextID {
			return fmt.Errorf("memctrl: snapshot request ID %d exceeds nextID %d", rs.ID, st.NextID)
		}
		if rs.Thread < 0 || rs.Thread >= c.cfg.NumThreads {
			return fmt.Errorf("memctrl: snapshot request %d has thread %d out of range [0,%d)", rs.ID, rs.Thread, c.cfg.NumThreads)
		}
		if rs.FirstOutcome > uint8(dram.RowConflict) {
			return fmt.Errorf("memctrl: snapshot request %d has invalid row-buffer outcome %d", rs.ID, rs.FirstOutcome)
		}
		if rs.CASIssued && !rs.Started {
			return fmt.Errorf("memctrl: snapshot request %d is in flight but never started", rs.ID)
		}
		if !rs.CASIssued {
			if rs.IsWrite {
				queuedWrites++
			} else {
				queuedReads++
			}
		}
	}
	if queuedReads > c.cfg.ReadBufferCap || queuedWrites > c.cfg.WriteBufferCap {
		return fmt.Errorf("memctrl: snapshot occupancy %d reads / %d writes exceeds buffer caps %d/%d",
			queuedReads, queuedWrites, c.cfg.ReadBufferCap, c.cfg.WriteBufferCap)
	}
	for _, rs := range st.Requests {
		r := &Request{
			ID:                    rs.ID,
			Thread:                rs.Thread,
			LineAddr:              rs.LineAddr,
			Loc:                   c.cfg.Geometry.Map(rs.LineAddr),
			IsWrite:               rs.IsWrite,
			Tag:                   rs.Tag,
			Arrival:               rs.Arrival,
			Started:               rs.Started,
			CASIssued:             rs.CASIssued,
			FirstScheduledOutcome: dram.RowBufferOutcome(rs.FirstOutcome),
			CompleteAt:            rs.CompleteAt,
		}
		byID[r.ID] = r
		idx := r.Loc.Channel*c.banksPer + r.Loc.Bank
		if r.CASIssued {
			c.inFlight = append(c.inFlight, r)
		} else {
			q := &c.queues[idx]
			if r.IsWrite {
				q.writes = append(q.writes, r)
				c.writeMask[r.Loc.Channel] |= 1 << uint(r.Loc.Bank)
				c.queuedWrites++
			} else {
				q.reads = append(q.reads, r)
				c.readMask[r.Loc.Channel] |= 1 << uint(r.Loc.Bank)
				c.queuedReads++
				c.queuedPerThr[r.Thread]++
				if c.queuedBank[r.Thread][idx] == 0 {
					c.queuedBanks[r.Thread]++
				}
				c.queuedBank[r.Thread][idx]++
			}
			q.ver++
		}
		// A started read occupies its bank until completion (the paper's
		// BankAccessParallelism): issue() incremented at first command,
		// completeFinished decrements when the read retires.
		if r.Started && !r.IsWrite {
			c.bankServiceInc(r)
		}
	}
	for i, id := range st.Reserved {
		if id == 0 {
			continue
		}
		r, ok := byID[id]
		if !ok {
			return fmt.Errorf("memctrl: reservation slot %d names unknown request %d", i, id)
		}
		if r.CASIssued {
			return fmt.Errorf("memctrl: reservation slot %d names in-flight request %d", i, id)
		}
		if got := r.Loc.Channel*c.banksPer + r.Loc.Bank; got != i {
			return fmt.Errorf("memctrl: reservation slot %d names request %d mapped to slot %d", i, id, got)
		}
		c.reserved[r.Loc.Channel][r.Loc.Bank] = r
	}
	c.nextID = st.NextID
	c.enqueuedReads = st.EnqueuedReads
	c.enqueuedWrites = st.EnqueuedWrites
	copy(c.draining, st.Draining)
	c.nextWake = st.NextWake
	for t := range st.ThreadStats {
		ts := st.ThreadStats[t]
		dst := &c.threadStats[t]
		dst.ReadsServiced = ts.ReadsServiced
		dst.WritesServiced = ts.WritesServiced
		dst.TotalReadLatency = ts.TotalReadLatency
		dst.RowHits = ts.RowHits
		dst.RowClosed = ts.RowClosed
		dst.RowConflicts = ts.RowConflicts
		if err := dst.ReadLatency.RestoreState(ts.ReadLatency); err != nil {
			return fmt.Errorf("memctrl: thread %d: %w", t, err)
		}
	}
	for i, ch := range c.channels {
		if err := ch.RestoreState(st.Channels[i]); err != nil {
			return fmt.Errorf("memctrl: channel %d: %w", i, err)
		}
	}
	return nil
}
