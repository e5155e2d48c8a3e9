package policy

import (
	"sort"

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
type PARBS struct {
	cap     int
	threads int

	// Per-channel batch state.
	marked    []map[uint64]bool // request ID -> marked
	remaining []int
	rank      [][]int // [channel][thread] -> rank (smaller is better)
}

// NewPARBS creates the scheduler for the given thread count and
// channel count. cap <= 0 selects DefaultMarkingCap.
func NewPARBS(threads, channels, cap int) *PARBS {
	if cap <= 0 {
		cap = DefaultMarkingCap
	}
	p := &PARBS{cap: cap, threads: threads}
	for i := 0; i < channels; i++ {
		p.marked = append(p.marked, make(map[uint64]bool))
		p.remaining = append(p.remaining, 0)
		p.rank = append(p.rank, make([]int, threads))
	}
	return p
}

// Name implements memctrl.Policy.
func (*PARBS) Name() string { return "PAR-BS" }

// BeginCycle implements memctrl.Policy.
func (*PARBS) BeginCycle(int64) {}

// PrepareCycle implements memctrl.BatchPolicy: forms a new batch when
// the current one has drained.
func (p *PARBS) PrepareCycle(ch int, _ int64, waiting []memctrl.Candidate) {
	if p.remaining[ch] > 0 {
		return
	}
	marked := p.marked[ch]
	for id := range marked {
		delete(marked, id)
	}

	// Group waiting reads by (thread, bank), oldest first.
	type key struct{ thread, bank int }
	groups := make(map[key][]*memctrl.Request)
	for i := range waiting {
		c := &waiting[i]
		if c.Req.IsWrite {
			continue
		}
		k := key{c.Req.Thread, c.Cmd.Bank}
		groups[k] = append(groups[k], c.Req)
	}
	total := make([]int, p.threads)
	maxPerBank := make([]int, p.threads)
	for k, reqs := range groups {
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].ID < reqs[j].ID })
		n := len(reqs)
		if n > p.cap {
			n = p.cap
		}
		for _, r := range reqs[:n] {
			marked[r.ID] = true
		}
		total[k.thread] += n
		if n > maxPerBank[k.thread] {
			maxPerBank[k.thread] = n
		}
	}
	p.remaining[ch] = len(marked)

	// Max-total ranking: ascending max-per-bank load, then total.
	order := make([]int, p.threads)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		if maxPerBank[ta] != maxPerBank[tb] {
			return maxPerBank[ta] < maxPerBank[tb]
		}
		return total[ta] < total[tb]
	})
	for pos, thread := range order {
		p.rank[ch][thread] = pos
	}
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
// batch when their column access issues. It reads no waiting set.
func (p *PARBS) OnSchedule(_ int64, chosen *memctrl.Candidate, _ *memctrl.Waiting) {
	if !chosen.Cmd.Kind.IsColumn() {
		return
	}
	ch := chosen.Channel
	if p.marked[ch][chosen.Req.ID] {
		delete(p.marked[ch], chosen.Req.ID)
		p.remaining[ch]--
	}
}

var (
	_ memctrl.Policy      = (*PARBS)(nil)
	_ memctrl.BatchPolicy = (*PARBS)(nil)
)
