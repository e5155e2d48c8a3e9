package cpu

import (
	"testing"
	"testing/quick"

	"stfm/internal/trace"
)

// TestCoreRandomTraceInvariants drives the core with arbitrary finite
// traces against a randomly-latencied memory port and checks the
// architectural invariants: every instruction commits exactly once,
// the core terminates, stall counters never exceed elapsed cycles, and
// every load issues exactly once.
func TestCoreRandomTraceInvariants(t *testing.T) {
	f := func(raw []uint32, seed uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 60 {
			raw = raw[:60]
		}
		var accesses []trace.Access
		var wantInstr int64
		for i, r := range raw {
			gap := int64(r % 50)
			kind := trace.Load
			if r%5 == 0 {
				kind = trace.Write
			}
			a := trace.Access{
				Gap:      gap,
				LineAddr: uint64(r),
				Kind:     kind,
				Chain:    i % 3,
				Dep:      r%2 == 0,
			}
			accesses = append(accesses, a)
			wantInstr += gap
			if kind == trace.Load {
				wantInstr++ // loads are instructions; writebacks are not
			}
		}
		mem := &scriptMem{latency: int64(seed%300) + 1, l2Miss: seed%2 == 0}
		c := New(0, DefaultConfig(), mem, &fixedStream{accesses: accesses})
		var now int64
		for ; now < 1_000_000 && !c.Done(); now++ {
			mem.tick(c, now)
			c.Tick(now)
		}
		if !c.Done() {
			return false // deadlock
		}
		if c.Committed() != wantInstr {
			return false
		}
		if c.MemStallCycles() > c.Cycles() || c.StallCycles() > c.Cycles() {
			return false
		}
		loads := int64(0)
		for _, a := range accesses {
			if a.Kind == trace.Load {
				loads++
			}
		}
		return mem.loads == loads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
