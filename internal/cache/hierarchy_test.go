package cache

import (
	"testing"

	"stfm/internal/memctrl"
	"stfm/internal/memctrl/policy"
)

func newHierarchy(t *testing.T, mshrs int) (*Hierarchy, *memctrl.Controller) {
	t.Helper()
	ctrl, err := memctrl.NewController(memctrl.DefaultConfig(1, 1), policy.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(0, L1Config(), L2Config(), mshrs, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	h.SetLoadSink(&loadLog{at: make(map[int64]int64)})
	return h, ctrl
}

// loadLog is the test LoadSink: it records when each load completed
// and hands out the issue sequence numbers load uses.
type loadLog struct {
	at      map[int64]int64
	lastSeq int64
}

func (l *loadLog) LoadDone(now, seq int64) {
	if _, dup := l.at[seq]; dup {
		panic("load completed twice")
	}
	l.at[seq] = now
}

// load issues a load under the next issue sequence number.
func load(h *Hierarchy, now int64, addr uint64) (seq int64, accepted, l2Miss bool) {
	l := h.loads.(*loadLog)
	l.lastSeq++
	accepted, l2Miss = h.Load(now, addr, l.lastSeq)
	return l.lastSeq, accepted, l2Miss
}

// doneAt returns the cycle load seq completed at, or -1.
func doneAt(h *Hierarchy, seq int64) int64 {
	if at, ok := h.loads.(*loadLog).at[seq]; ok {
		return at
	}
	return -1
}

// step advances the controller and hierarchy together.
func step(h *Hierarchy, ctrl *memctrl.Controller, from, to int64) {
	for now := from; now < to; now++ {
		ctrl.Tick(now)
		h.Tick(now)
	}
}

func TestHierarchyValidation(t *testing.T) {
	ctrl, _ := memctrl.NewController(memctrl.DefaultConfig(1, 1), policy.NewFRFCFS())
	if _, err := NewHierarchy(0, L1Config(), L2Config(), 0, ctrl); err == nil {
		t.Error("zero MSHRs must fail")
	}
	if _, err := NewHierarchy(0, Config{SizeBytes: 100, Ways: 3, LineBytes: 64}, L2Config(), 4, ctrl); err == nil {
		t.Error("bad L1 config must fail")
	}
}

func TestMissGoesToDRAMThenHits(t *testing.T) {
	h, ctrl := newHierarchy(t, 8)
	miss, accepted, l2miss := load(h, 0, 42)
	if !accepted || !l2miss {
		t.Fatalf("cold load: accepted=%v l2miss=%v, want true/true", accepted, l2miss)
	}
	step(h, ctrl, 0, 2000)
	if doneAt(h, miss) < 0 {
		t.Fatal("miss never completed")
	}
	if h.DRAMLoads() != 1 {
		t.Errorf("DRAM loads = %d, want 1", h.DRAMLoads())
	}

	hit, accepted, l2miss := load(h, 2000, 42)
	if !accepted || l2miss {
		t.Fatalf("warm load should be a cache hit, got l2miss=%v", l2miss)
	}
	step(h, ctrl, 2000, 2100)
	if hitAt := doneAt(h, hit); hitAt-2000 != L1Config().Latency {
		t.Errorf("L1 hit latency = %d, want %d", hitAt-2000, L1Config().Latency)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h, ctrl := newHierarchy(t, 16)
	// Fill line 0, then sweep enough same-set lines through L1 to
	// evict it from L1 while it stays in the larger L2.
	load(h, 0, 0)
	step(h, ctrl, 0, 2000)

	l1sets := int64(L1Config().SizeBytes / L1Config().LineBytes / L1Config().Ways)
	for i := int64(1); i <= int64(L1Config().Ways); i++ {
		load(h, 2000, uint64(i*l1sets))
		step(h, ctrl, 2000, 2000+1)
		step(h, ctrl, 2001, 4000)
	}
	hit, acc, l2miss := load(h, 5000, 0)
	if !acc {
		t.Fatal("refused")
	}
	if l2miss {
		t.Fatal("line should still be in L2")
	}
	step(h, ctrl, 5000, 5100)
	if hitAt := doneAt(h, hit); hitAt-5000 != L2Config().Latency {
		t.Errorf("L2 hit latency = %d, want %d", hitAt-5000, L2Config().Latency)
	}
}

func TestMSHRMerging(t *testing.T) {
	h, ctrl := newHierarchy(t, 8)
	load(h, 0, 7)
	load(h, 0, 7) // same line: merged
	if h.OutstandingMisses() != 1 {
		t.Fatalf("outstanding = %d, want 1 (merged)", h.OutstandingMisses())
	}
	step(h, ctrl, 0, 2000)
	if completions := len(h.loads.(*loadLog).at); completions != 2 {
		t.Errorf("completions = %d, want 2", completions)
	}
	if h.DRAMLoads() != 1 {
		t.Errorf("DRAM loads = %d, want 1 after merge", h.DRAMLoads())
	}
}

func TestMSHRLimit(t *testing.T) {
	h, _ := newHierarchy(t, 2)
	_, ok1, _ := load(h, 0, 1)
	_, ok2, _ := load(h, 0, 2)
	_, ok3, _ := load(h, 0, 3)
	if !ok1 || !ok2 {
		t.Fatal("first two misses must be accepted")
	}
	if ok3 {
		t.Error("third miss must be refused at MSHR limit 2")
	}
}

func TestStoreMissAllocatesWithoutBlocking(t *testing.T) {
	h, ctrl := newHierarchy(t, 8)
	if !h.Store(0, 99) {
		t.Fatal("store refused")
	}
	step(h, ctrl, 0, 2000)
	// The line must now be resident and dirty: evicting it later
	// produces a writeback.
	if _, _, l2miss := load(h, 2500, 99); l2miss {
		t.Error("store-allocated line should hit")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h, ctrl := newHierarchy(t, 64)
	// Dirty one line, then push enough conflicting lines through its
	// L2 set to evict it from both levels (L2 set stride = number of
	// L2 sets, and those addresses share its L1 set too).
	h.Store(0, 0)
	step(h, ctrl, 0, 3000)
	l2sets := int64(L2Config().SizeBytes / L2Config().LineBytes / L2Config().Ways)
	now := int64(3000)
	for i := int64(1); i <= int64(2*L2Config().Ways); i++ {
		i := i * l2sets
		for !try(h, now, uint64(i)) {
			now++
			ctrl.Tick(now)
			h.Tick(now)
		}
		now += 7
		ctrl.Tick(now)
		h.Tick(now)
	}
	// Drain everything, including in-flight bursts after the queues
	// empty.
	for q := 0; q < 3_000_000 && (h.OutstandingMisses() > 0 || ctrl.QueuedReads() > 0 || ctrl.QueuedWrites() > 0); q++ {
		now++
		ctrl.Tick(now)
		h.Tick(now)
	}
	for q := 0; q < 1000; q++ {
		now++
		ctrl.Tick(now)
		h.Tick(now)
	}
	if got := ctrl.ThreadStats(0).WritesServiced; got == 0 {
		t.Error("dirty eviction never produced a DRAM write")
	}
}

func try(h *Hierarchy, now int64, addr uint64) bool {
	_, acc, _ := load(h, now, addr)
	return acc
}
