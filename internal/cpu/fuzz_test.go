package cpu

import (
	"math/rand"
	"reflect"
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

// TestCoreFastForwardMatchesDense is the oracle for pure-compute runs
// (Core.pureTicks, FlushIdle). Two cores run one random trace over
// identical scripted ports: one is ticked every cycle, the other only
// when NextAt() <= now, as sim.System.step gates cores, and is also
// flushed at random cycles, as STFM's tshared read flushes it. Their
// architected counters and window and fetch state must agree whenever
// the gated core ticks or is flushed, and at the end. Gaps reach several
// hundred instructions and include multiples of the width ± 1, widths
// run 1–4, ports refuse at random, and a commit limit must never be
// crossed inside a run: the gated core has to tick at the cycle the
// dense one reaches it, as the engine's freeze check requires.
func TestCoreFastForwardMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Width: 1 + rng.Intn(4), WindowSize: []int{8, 32, 128}[rng.Intn(3)]}
		var accesses []trace.Access
		var total int64
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			var gap int64
			switch rng.Intn(3) {
			case 0:
				gap = int64(rng.Intn(600))
			case 1:
				gap = max(0, int64(cfg.Width*rng.Intn(200)+rng.Intn(3)-1))
			default:
				gap = int64(rng.Intn(10))
			}
			kind := trace.Load
			if rng.Intn(5) == 0 {
				kind = trace.Write
			}
			accesses = append(accesses, trace.Access{
				Gap: gap, LineAddr: uint64(i), Kind: kind, Chain: rng.Intn(3), Dep: rng.Intn(2) == 0,
			})
			total += gap
			if kind == trace.Load {
				total++
			}
		}
		latency, l2Miss := int64(1+rng.Intn(300)), rng.Intn(2) == 0
		memD := &scriptMem{latency: latency, l2Miss: l2Miss}
		memG := &scriptMem{latency: latency, l2Miss: l2Miss}
		dense := New(0, cfg, memD, &fixedStream{accesses: accesses})
		gated := New(0, cfg, memG, &fixedStream{accesses: accesses})
		var target int64
		if total > 0 && rng.Intn(4) != 0 {
			target = 1 + rng.Int63n(total)
			gated.SetTarget(target)
		}
		same := func(now int64, when string) bool {
			d, g := dense.SaveState(), gated.SaveState()
			for _, st := range []*CoreState{&d, &g} {
				st.NextAt, st.Settled, st.Pure, st.IdleHasWork, st.IdleMemStall = 0, 0, false, false, false
			}
			if !reflect.DeepEqual(d, g) {
				t.Errorf("seed %d, width %d, cycle %d, %s: gated core diverges from dense\ndense: %+v\ngated: %+v",
					seed, cfg.Width, now, when, d, g)
				return false
			}
			return true
		}
		var now int64
		for ; now < 1_000_000 && !dense.Done(); now++ {
			if rng.Intn(50) == 0 {
				memD.refuse = !memD.refuse
				memG.refuse = memD.refuse
			}
			memD.tick(dense, now)
			memG.tick(gated, now)
			if rng.Intn(20) == 0 {
				gated.FlushIdle(now)
				if !same(now, "flush") {
					return false
				}
			}
			dense.Tick(now)
			ticked := gated.NextAt() <= now
			if ticked {
				gated.Tick(now)
				if !same(now, "tick") {
					return false
				}
			}
			if target > 0 && dense.Committed() >= target {
				if !ticked {
					t.Errorf("seed %d: the dense core reached its target %d at cycle %d inside the gated core's run", seed, target, now)
					return false
				}
				target = 0
				gated.SetTarget(0)
			}
		}
		if !dense.Done() || dense.Committed() != total {
			t.Errorf("seed %d: dense core committed %d of %d instructions by cycle %d", seed, dense.Committed(), total, now)
			return false
		}
		gated.FlushIdle(now)
		return same(now, "end")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
