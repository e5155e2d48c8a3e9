package cpu

import (
	"testing"

	"stfm/internal/trace"
)

// scriptMem is a scripted Memory port: loads complete after a fixed
// latency; an acceptance gate can refuse.
type scriptMem struct {
	latency   int64
	l2Miss    bool
	refuse    bool
	pending   []pendingOp
	loads     int64
	stores    int64
	lastStore uint64
}

type pendingOp struct {
	at  int64
	seq int64
}

func (m *scriptMem) Load(now int64, lineAddr uint64, seq int64) (bool, bool) {
	if m.refuse {
		return false, m.l2Miss
	}
	m.loads++
	m.pending = append(m.pending, pendingOp{at: now + m.latency, seq: seq})
	return true, m.l2Miss
}

func (m *scriptMem) Store(now int64, lineAddr uint64) bool {
	if m.refuse {
		return false
	}
	m.stores++
	m.lastStore = lineAddr
	return true
}

// tick completes the loads due by now on core c.
func (m *scriptMem) tick(c *Core, now int64) {
	for i := 0; i < len(m.pending); {
		if m.pending[i].at <= now {
			c.LoadDone(now, m.pending[i].seq)
			m.pending[i] = m.pending[len(m.pending)-1]
			m.pending = m.pending[:len(m.pending)-1]
		} else {
			i++
		}
	}
}

// fixedStream yields a fixed slice of accesses.
type fixedStream struct {
	accesses []trace.Access
	i        int
}

func (s *fixedStream) Next() (trace.Access, bool) {
	if s.i >= len(s.accesses) {
		return trace.Access{}, false
	}
	a := s.accesses[s.i]
	s.i++
	return a, true
}

func run(c *Core, mem *scriptMem, maxCycles int64) int64 {
	now := int64(0)
	for ; now < maxCycles && !c.Done(); now++ {
		mem.tick(c, now)
		c.Tick(now)
	}
	return now
}

func TestPureComputeIPCEqualsWidth(t *testing.T) {
	mem := &scriptMem{}
	// One giant compute gap, then a single fast load.
	s := &fixedStream{accesses: []trace.Access{{Gap: 3000, LineAddr: 1}}}
	c := New(0, DefaultConfig(), mem, s)
	run(c, mem, 10_000)
	if !c.Done() {
		t.Fatal("core did not finish")
	}
	if got := c.Committed(); got != 3001 {
		t.Fatalf("committed = %d, want 3001", got)
	}
	// 3001 instructions at width 3 with a zero-latency load: IPC ~ 3.
	if ipc := c.IPC(); ipc < 2.5 {
		t.Errorf("IPC = %v, want close to 3", ipc)
	}
	if c.MemStallCycles() != 0 {
		t.Errorf("cache-hit loads must not accrue memory stall, got %d", c.MemStallCycles())
	}
}

func TestL2MissStallAccounting(t *testing.T) {
	mem := &scriptMem{latency: 200, l2Miss: true}
	s := &fixedStream{accesses: []trace.Access{{Gap: 0, LineAddr: 1}}}
	c := New(0, DefaultConfig(), mem, s)
	run(c, mem, 1000)
	if c.Committed() != 1 {
		t.Fatalf("committed = %d, want 1", c.Committed())
	}
	// The load issues at cycle 0 and completes ~200 later; nearly all
	// of that is stall with the miss at the window head.
	if st := c.MemStallCycles(); st < 150 || st > 250 {
		t.Errorf("memory stall = %d, want ~200", st)
	}
	if c.DRAMLoads() != 1 {
		t.Errorf("DRAMLoads = %d, want 1", c.DRAMLoads())
	}
}

func TestCacheHitsDoNotCountAsMemStall(t *testing.T) {
	mem := &scriptMem{latency: 12, l2Miss: false}
	var acc []trace.Access
	for i := 0; i < 50; i++ {
		acc = append(acc, trace.Access{Gap: 2, LineAddr: uint64(i)})
	}
	c := New(0, DefaultConfig(), mem, &fixedStream{accesses: acc})
	run(c, mem, 10_000)
	if c.MemStallCycles() != 0 {
		t.Errorf("L2 hits stalled the Tshared counter: %d", c.MemStallCycles())
	}
	if c.StallCycles() == 0 {
		t.Error("12-cycle hits should still cause some generic stall")
	}
}

func TestDependentChainSerializes(t *testing.T) {
	mem := &scriptMem{latency: 100, l2Miss: true}
	// Two dependent loads in the same chain, adjacent in the program.
	s := &fixedStream{accesses: []trace.Access{
		{Gap: 0, LineAddr: 1, Chain: 0, Dep: true},
		{Gap: 0, LineAddr: 2, Chain: 0, Dep: true},
	}}
	c := New(0, DefaultConfig(), mem, s)
	end := run(c, mem, 5000)
	if !c.Done() {
		t.Fatal("did not finish")
	}
	// Serialized: ~2x the latency.
	if end < 200 {
		t.Errorf("finished at %d; dependent loads must serialize (>= 200)", end)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	mem := &scriptMem{latency: 100, l2Miss: true}
	s := &fixedStream{accesses: []trace.Access{
		{Gap: 0, LineAddr: 1, Chain: 0},
		{Gap: 0, LineAddr: 2, Chain: 1},
	}}
	c := New(0, DefaultConfig(), mem, s)
	end := run(c, mem, 5000)
	if end >= 200 {
		t.Errorf("finished at %d; independent loads must overlap (< 200)", end)
	}
}

func TestDependentChainsInDifferentChainsOverlap(t *testing.T) {
	mem := &scriptMem{latency: 100, l2Miss: true}
	s := &fixedStream{accesses: []trace.Access{
		{Gap: 0, LineAddr: 1, Chain: 0, Dep: true},
		{Gap: 0, LineAddr: 2, Chain: 1, Dep: true},
		{Gap: 0, LineAddr: 3, Chain: 0, Dep: true},
		{Gap: 0, LineAddr: 4, Chain: 1, Dep: true},
	}}
	c := New(0, DefaultConfig(), mem, s)
	end := run(c, mem, 5000)
	// Two chains of two serialized loads each, overlapped: ~2 x 100.
	if end < 200 || end > 320 {
		t.Errorf("finished at %d, want ~200-320 (two overlapped chains)", end)
	}
}

func TestWindowCapacityLimitsOutstanding(t *testing.T) {
	mem := &scriptMem{latency: 10_000, l2Miss: true}
	var acc []trace.Access
	for i := 0; i < 64; i++ {
		// Gap 31 + 1 memory instr = 32 instructions per access: the
		// 128-entry window holds exactly 4.
		acc = append(acc, trace.Access{Gap: 31, LineAddr: uint64(i), Chain: i})
	}
	c := New(0, DefaultConfig(), mem, &fixedStream{accesses: acc})
	for now := int64(0); now < 200; now++ {
		mem.tick(c, now)
		c.Tick(now)
	}
	if mem.loads != 4 {
		t.Errorf("outstanding loads = %d, want 4 (window-limited)", mem.loads)
	}
}

func TestWritebacksBypassWindow(t *testing.T) {
	mem := &scriptMem{latency: 50, l2Miss: true}
	s := &fixedStream{accesses: []trace.Access{
		{Gap: 0, LineAddr: 7, Kind: trace.Write},
		{Gap: 5, LineAddr: 8, Kind: trace.Load},
	}}
	c := New(0, DefaultConfig(), mem, s)
	run(c, mem, 1000)
	if mem.stores != 1 || mem.lastStore != 7 {
		t.Errorf("stores = %d last = %d, want 1 store of line 7", mem.stores, mem.lastStore)
	}
	// The writeback is not an instruction.
	if c.Committed() != 6 {
		t.Errorf("committed = %d, want 6 (5 compute + 1 load)", c.Committed())
	}
}

func TestRefusedAccessesRetry(t *testing.T) {
	mem := &scriptMem{latency: 10, l2Miss: true, refuse: true}
	s := &fixedStream{accesses: []trace.Access{{Gap: 0, LineAddr: 1}}}
	c := New(0, DefaultConfig(), mem, s)
	for now := int64(0); now < 50; now++ {
		mem.tick(c, now)
		c.Tick(now)
	}
	if mem.loads != 0 {
		t.Fatal("load must not issue while refused")
	}
	mem.refuse = false
	for now := int64(50); now < 200 && !c.Done(); now++ {
		mem.tick(c, now)
		c.Tick(now)
	}
	if !c.Done() || mem.loads != 1 {
		t.Error("load must issue and complete after the port unblocks")
	}
}

func TestCommitWidth(t *testing.T) {
	mem := &scriptMem{}
	s := &fixedStream{accesses: []trace.Access{{Gap: 299, LineAddr: 1}}}
	c := New(0, Config{Width: 3, WindowSize: 128}, mem, s)
	run(c, mem, 10_000)
	// 300 instructions at exactly 3/cycle cannot take fewer than 100
	// cycles.
	if c.Cycles() < 100 {
		t.Errorf("%d instructions committed in %d cycles exceeds width 3", c.Committed(), c.Cycles())
	}
}

func TestMCPIAndIPCAccessors(t *testing.T) {
	mem := &scriptMem{latency: 100, l2Miss: true}
	s := &fixedStream{accesses: []trace.Access{{Gap: 10, LineAddr: 1}}}
	c := New(0, DefaultConfig(), mem, s)
	if c.IPC() != 0 || c.MCPI() != 0 {
		t.Error("zero-state accessors should be 0")
	}
	run(c, mem, 1000)
	if c.IPC() <= 0 || c.MCPI() <= 0 {
		t.Error("post-run accessors should be positive")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero width must panic")
		}
	}()
	New(0, Config{}, &scriptMem{}, &fixedStream{})
}
