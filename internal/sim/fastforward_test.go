package sim

import (
	"testing"

	"stfm/internal/trace"
)

// sliceStream is a finite trace.Stream over a fixed list of accesses.
type sliceStream struct {
	acc []trace.Access
	i   int
}

func (s *sliceStream) Next() (trace.Access, bool) {
	if s.i == len(s.acc) {
		return trace.Access{}, false
	}
	s.i++
	return s.acc[s.i-1], true
}

// runStreamDenseAndEvent runs one thread over fresh copies of acc,
// event-driven and dense, and requires equal Results.
func runStreamDenseAndEvent(t *testing.T, cfg Config, acc []trace.Access) *Result {
	t.Helper()
	var res [2]*Result
	for i, dense := range []bool{false, true} {
		cfg.DenseTick = dense
		cfg.Streams = []trace.Stream{&sliceStream{acc: acc}}
		r, err := Run(cfg, profilesByName(t, "mcf"))
		if err != nil {
			t.Fatalf("dense=%v: %v", dense, err)
		}
		res[i] = r
	}
	assertResultsEqual(t, "event against dense", res[0], res[1])
	return res[0]
}

// TestWatchdogSeesFastForwardedCommits: a core in one long compute gap
// is skipped through it in pure-compute runs bounded only by its
// instruction target, so its committed count lags until something
// settles it. The watchdog's boundary must settle it (progressCounters
// flushes), or the run fails with a false *StallError at the first
// boundary.
func TestWatchdogSeesFastForwardedCommits(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 1)
	cfg.InstrTarget = 2_000_000
	cfg.WatchdogCycles = 100_000
	res := runStreamDenseAndEvent(t, cfg, []trace.Access{
		{Gap: 3_000_000, LineAddr: 1},
		{Gap: 3_000_000, LineAddr: 2},
	})
	if th := res.Threads[0]; th.Instructions != 2_000_001 || th.Cycles != 666_668 {
		t.Errorf("committed %d instructions in %d cycles, want 2000001 in 666668", th.Instructions, th.Cycles)
	}
}

// TestFiniteTraceDrainsUnderEventStepping: a trace ending in a store
// after a compute gap leaves an open tail entry that commit drains in
// whole fetch groups. Popping the emptied entry is what finishes the
// trace, so the core must tick again instead of parking on it, or the
// event-driven run never sees the thread finish and runs on to
// MaxCycles.
func TestFiniteTraceDrainsUnderEventStepping(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 1)
	cfg.InstrTarget = 1_000
	cfg.MaxCycles = 50_000
	res := runStreamDenseAndEvent(t, cfg, []trace.Access{
		{Gap: 10, LineAddr: 1},
		{Gap: 32, LineAddr: 2, Kind: trace.Write},
	})
	if th := res.Threads[0]; th.Truncated || th.Instructions != 43 {
		t.Errorf("thread %+v, want 43 instructions committed before MaxCycles", th)
	}
}
