package policy

import (
	"testing"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
)

// readsView is a memctrl.View whose every channel holds the same
// scripted queued reads.
type readsView struct {
	memctrl.View
	threads int
	reads   []*memctrl.Request
}

func (v *readsView) NumThreads() int { return v.threads }
func (v *readsView) AppendQueuedReads(dst []*memctrl.Request, _ int) []*memctrl.Request {
	return append(dst, v.reads...)
}

// reqsOf returns the candidates' requests.
func reqsOf(cands []memctrl.Candidate) []*memctrl.Request {
	var out []*memctrl.Request
	for i := range cands {
		out = append(out, cands[i].Req)
	}
	return out
}

func TestPARBSMarkingCap(t *testing.T) {
	p := NewPARBS(&readsView{threads: 2}, 1, 2)
	// Thread 0 floods bank 0 with 5 requests; thread 1 has 1.
	var waiting []memctrl.Candidate
	for i := uint64(1); i <= 5; i++ {
		waiting = append(waiting, cand(i, 0, dram.CmdRead, 0, int64(i)))
	}
	waiting = append(waiting, cand(10, 1, dram.CmdRead, 0, 10))
	p.form(0, reqsOf(waiting))

	markedCount := 0
	for _, c := range waiting[:5] {
		if p.marked[0][c.Req.ID] {
			markedCount++
		}
	}
	if markedCount != 2 {
		t.Errorf("thread 0 has %d marked requests, cap is 2", markedCount)
	}
	if !p.marked[0][10] {
		t.Error("thread 1's request must be marked")
	}
	// Oldest requests are the ones marked.
	if !p.marked[0][1] || !p.marked[0][2] || p.marked[0][5] {
		t.Error("marking must take the oldest requests")
	}
}

func TestPARBSMarkedBeatUnmarked(t *testing.T) {
	p := NewPARBS(&readsView{threads: 2}, 1, 1)
	old := cand(1, 0, dram.CmdRead, 0, 0)
	young := cand(2, 0, dram.CmdRead, 0, 5) // same thread/bank, beyond cap
	hit := cand(3, 1, dram.CmdRead, 1, 9)
	hit.Outcome = dram.RowHit
	p.form(0, reqsOf([]memctrl.Candidate{old, young, hit}))

	if !p.marked[0][1] || p.marked[0][2] {
		t.Fatal("marking state wrong")
	}
	// A marked row access beats an unmarked row hit.
	rowCmd := cand(4, 0, dram.CmdPrecharge, 2, 0)
	p.marked[0][4] = true
	if !p.Less(&rowCmd, &young) {
		t.Error("marked request must beat unmarked")
	}
}

func TestPARBSShortestJobFirstRanking(t *testing.T) {
	p := NewPARBS(&readsView{threads: 2}, 1, 5)
	// Thread 0: 4 requests in one bank (heavy). Thread 1: 1 request.
	var waiting []memctrl.Candidate
	for i := uint64(1); i <= 4; i++ {
		waiting = append(waiting, cand(i, 0, dram.CmdRead, 0, int64(i)))
	}
	waiting = append(waiting, cand(10, 1, dram.CmdRead, 1, 10))
	p.form(0, reqsOf(waiting))

	if p.rank[0][1] >= p.rank[0][0] {
		t.Errorf("light thread must rank ahead: rank0=%d rank1=%d", p.rank[0][0], p.rank[0][1])
	}
	// Among marked same-class candidates, the better-ranked thread
	// wins even when older requests exist.
	a := waiting[0] // thread 0, older
	b := waiting[4] // thread 1, younger, better rank
	if p.Less(&a, &b) {
		t.Error("rank must dominate age within a batch")
	}
}

func TestPARBSBatchDrainsAndReforms(t *testing.T) {
	v := &readsView{threads: 1}
	p := NewPARBS(v, 1, 5)
	a := cand(1, 0, dram.CmdRead, 0, 0)
	v.reads = reqsOf([]memctrl.Candidate{a})
	p.BeginCycle(0)
	if p.remaining[0] != 1 {
		t.Fatalf("remaining = %d", p.remaining[0])
	}
	// Until the batch drains, a new read joins no batch.
	b := cand(2, 0, dram.CmdRead, 0, 5)
	v.reads = reqsOf([]memctrl.Candidate{a, b})
	p.BeginCycle(5)
	if p.marked[0][2] {
		t.Error("a read arriving mid-batch must wait for the next batch")
	}
	p.OnSchedule(5, &a)
	if p.remaining[0] != 0 {
		t.Fatalf("batch should drain, remaining = %d", p.remaining[0])
	}
	// The next edge forms a fresh batch.
	v.reads = reqsOf([]memctrl.Candidate{b})
	p.BeginCycle(10)
	if !p.marked[0][2] {
		t.Error("new batch must mark the new request")
	}
}

// TestPARBSIgnoresWrites: the controller reports only reads to a
// formation, so a queued write is never marked.
func TestPARBSIgnoresWrites(t *testing.T) {
	c, err := memctrl.NewController(memctrl.DefaultConfig(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPARBS(c, 1, 5)
	c.SetPolicy(p)
	if !c.EnqueueWrite(0, 0, 1) || !c.EnqueueRead(0, 0, 2, 0) {
		t.Fatal("controller refused a request")
	}
	p.BeginCycle(0)
	if p.marked[0][1] {
		t.Error("writes must not be batched")
	}
	if !p.marked[0][2] || p.remaining[0] != 1 {
		t.Errorf("the read must form the batch alone: marked %v, remaining %d", p.marked[0], p.remaining[0])
	}
}
