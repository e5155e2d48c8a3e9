package policy

import (
	"cmp"
	"slices"

	"stfm/internal/memctrl"
)

// DefaultMarkingCap is PAR-BS's per-thread per-bank marking cap.
const DefaultMarkingCap = 5

// PARBS implements Parallelism-Aware Batch Scheduling (Mutlu &
// Moscibroda, ISCA 2008) — the authors' follow-up to STFM and the
// natural "future work" extension of this reproduction. It is not one
// of the five schedulers the MICRO 2007 paper evaluates.
//
// The scheduler works in batches:
//
//   - Batch formation: when the current batch drains, up to MarkingCap
//     of the oldest waiting read requests of every thread in every bank
//     are marked. Marked requests have absolute priority over unmarked
//     ones, which bounds any thread's memory-induced starvation to a
//     few batches regardless of its behaviour.
//   - Within a batch, threads are ranked shortest-job-first by the
//     max-total rule: ascending maximum per-bank marked count (a
//     thread's batch-completion time is governed by its most-loaded
//     bank), then ascending total marked requests. Servicing
//     low-rank threads' requests first preserves each thread's bank
//     parallelism — the insight that gave PAR-BS its name.
//   - Prioritization: marked-first, then row-hit first, then rank,
//     then oldest.
//
// Batches are per channel (a simplification; the original forms global
// batches — with the paper's per-channel bank partitioning the
// difference is second-order).
//
// PAR-BS is an ordinary ordering policy: BeginCycle forms the batch of
// every drained channel from the reads the controller's View reports,
// and the order epoch bumps only when a formation changes the marks or
// the ranks, so the controller's winner memos and channel horizons
// survive every edge between formations.
type PARBS struct {
	view    memctrl.View
	cap     int
	threads int

	// Per-channel batch state.
	marked    []map[uint64]bool // request ID -> marked
	remaining []int
	rank      [][]int // [channel][thread] -> rank (smaller is better)
	// epoch counts formations that changed the marks or the ranks, the
	// state Less reads (OrderEpoch).
	epoch uint64

	// Formation scratch, reused across formations.
	reads             []*memctrl.Request
	total, maxPerBank []int
	order             []int
}

// NewPARBS creates the scheduler over the controller's view (for its
// thread count and queued reads) for the given channel count. cap <= 0
// selects DefaultMarkingCap.
func NewPARBS(view memctrl.View, channels, cap int) *PARBS {
	if cap <= 0 {
		cap = DefaultMarkingCap
	}
	threads := view.NumThreads()
	p := &PARBS{
		view: view, cap: cap, threads: threads,
		total: make([]int, threads), maxPerBank: make([]int, threads), order: make([]int, threads),
	}
	for i := 0; i < channels; i++ {
		p.marked = append(p.marked, make(map[uint64]bool))
		p.remaining = append(p.remaining, 0)
		p.rank = append(p.rank, make([]int, threads))
	}
	return p
}

// Name implements memctrl.Policy.
func (*PARBS) Name() string { return "PAR-BS" }

// BeginCycle implements memctrl.Policy: forms a new batch on every
// channel whose batch has drained. A channel without reads still forms
// one, which resets its ranks to identity: writes are ordered by rank
// too.
func (p *PARBS) BeginCycle(int64) {
	for ch, n := range p.remaining {
		if n > 0 {
			continue
		}
		p.reads = p.view.AppendQueuedReads(p.reads[:0], ch)
		if p.form(ch, p.reads) {
			p.epoch++
		}
	}
}

// form forms channel ch's batch over its waiting reads, which it
// reorders, and reports whether the marks or ranks changed. The
// channel's batch must have drained, so no request is marked yet.
func (p *PARBS) form(ch int, reads []*memctrl.Request) bool {
	// Mark up to cap of each thread's oldest reads per bank.
	slices.SortFunc(reads, func(a, b *memctrl.Request) int {
		if a.Thread != b.Thread {
			return a.Thread - b.Thread
		}
		if a.Loc.Bank != b.Loc.Bank {
			return a.Loc.Bank - b.Loc.Bank
		}
		return cmp.Compare(a.ID, b.ID)
	})
	clear(p.total)
	clear(p.maxPerBank)
	marked := p.marked[ch]
	for i := 0; i < len(reads); {
		t, b := reads[i].Thread, reads[i].Loc.Bank
		j := i + 1
		for j < len(reads) && reads[j].Thread == t && reads[j].Loc.Bank == b {
			j++
		}
		n := min(j-i, p.cap)
		for _, r := range reads[i : i+n] {
			marked[r.ID] = true
		}
		p.total[t] += n
		p.maxPerBank[t] = max(p.maxPerBank[t], n)
		i = j
	}
	p.remaining[ch] = len(marked)

	// Max-total ranking: ascending max-per-bank load, then total.
	for i := range p.order {
		p.order[i] = i
	}
	slices.SortStableFunc(p.order, func(a, b int) int {
		if p.maxPerBank[a] != p.maxPerBank[b] {
			return p.maxPerBank[a] - p.maxPerBank[b]
		}
		return p.total[a] - p.total[b]
	})
	changed := len(marked) > 0
	rank := p.rank[ch]
	for pos, thread := range p.order {
		if rank[thread] != pos {
			rank[thread] = pos
			changed = true
		}
	}
	return changed
}

// Less implements memctrl.Policy: marked-first, row-hit first, rank,
// oldest.
func (p *PARBS) Less(a, b *memctrl.Candidate) bool {
	am, bm := p.marked[a.Channel][a.Req.ID], p.marked[b.Channel][b.Req.ID]
	if am != bm {
		return am
	}
	if a.IsColumn() != b.IsColumn() {
		return a.IsColumn()
	}
	ra, rb := p.rank[a.Channel][a.Req.Thread], p.rank[b.Channel][b.Req.Thread]
	if ra != rb {
		return ra < rb
	}
	return a.Req.Older(b.Req)
}

// OnSchedule implements memctrl.Policy: marked requests leave the
// batch when their column access issues. It reads nothing, and
// unmarking needs no epoch bump: the request leaves its queue with the
// same column access.
func (p *PARBS) OnSchedule(_ int64, chosen *memctrl.Candidate) {
	if !chosen.Cmd.Kind.IsColumn() {
		return
	}
	ch := chosen.Channel
	if p.marked[ch][chosen.Req.ID] {
		delete(p.marked[ch], chosen.Req.ID)
		p.remaining[ch]--
	}
}

// OrderEpoch implements memctrl.Policy: bumped by every formation that
// changes the marks or the ranks.
func (p *PARBS) OrderEpoch() uint64 { return p.epoch }

var _ memctrl.Policy = (*PARBS)(nil)
