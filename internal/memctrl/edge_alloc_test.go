package memctrl

import (
	"reflect"
	"testing"

	"stfm/internal/dram"
)

// consumerFunc adapts a function to ReadConsumer.
type consumerFunc func(now int64, r *Request)

func (f consumerFunc) ReadDone(now int64, r *Request) { f(now, r) }

// TestEdgePathZeroAllocs pins the property the controller's
// preallocated containers exist for: once the buffers are loaded, the
// per-edge path — completion retirement, per-bank tournament (memoized
// and full scans), issue, horizon computation — performs zero heap
// allocations per tick. A regression here silently reintroduces GC
// pressure proportional to simulated cycles. (Enqueue reuses retired
// requests; TestSystemSteadyStateZeroAllocs in internal/sim pins the
// whole step, enqueues included.)
func TestEdgePathZeroAllocs(t *testing.T) {
	c := newEdgeController(t, 8, 2)
	fillQueues(c, 0, 8)
	// Warm one edge so any lazily-sized scratch reaches steady state.
	c.Tick(0)
	now := c.NextTickAt()
	allocs := testing.AllocsPerRun(100, func() {
		if now < dram.Horizon {
			c.Tick(now)
			now = c.NextTickAt()
		}
	})
	if allocs != 0 {
		t.Errorf("edge path allocates %.1f times per tick, want 0", allocs)
	}
}

// TestEdgePathZeroAllocsBankGroups re-pins the same property with the
// DDR4 pack active: bank groups (tCCD_L/tCCD_S spacing) and the larger
// bank count exercise the grouped branch of CanIssue/CommandReadyAt,
// which must stay on the allocation-free path too.
func TestEdgePathZeroAllocsBankGroups(t *testing.T) {
	cfg := DefaultConfig(8, 2)
	tm, err := dram.PresetTiming(dram.DDR4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dram.PresetGeometry(dram.DDR4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Timing = tm
	cfg.Geometry = g
	c, err := NewController(cfg, benchFRFCFS{})
	if err != nil {
		t.Fatal(err)
	}
	fillQueues(c, 0, 8)
	c.Tick(0)
	now := c.NextTickAt()
	allocs := testing.AllocsPerRun(100, func() {
		if now < dram.Horizon {
			c.Tick(now)
			now = c.NextTickAt()
		}
	})
	if allocs != 0 {
		t.Errorf("bank-grouped edge path allocates %.1f times per tick, want 0", allocs)
	}
}

// TestCompleteFinishedDeterministicOrder is the regression test for the
// completion-order fix: the in-flight buffer's internal order is
// scrambled by swap-removal, so same-cycle completions must reach their
// consumers sorted by (CompleteAt, then arrival ID) — never by buffer
// position or channel index. Anything downstream of the consumers
// (MSHR frees, the IDs assigned to requests enqueued from inside a
// consumer) depends on this order being a function of the schedule,
// not of slice layout.
func TestCompleteFinishedDeterministicOrder(t *testing.T) {
	type inFlight struct {
		id uint64
		ch int
		at int64
	}
	cases := []struct {
		name     string
		channels int
		buf      []inFlight
		want     []uint64 // callback firing order
		kept     []uint64 // in-flight IDs left after retirement
	}{{
		// Neither CompleteAt- nor ID-sorted, with two same-cycle
		// clusters (cycle 5 and cycle 7) and one not-yet-due request
		// that must survive untouched.
		name:     "scrambled",
		channels: 1,
		buf:      []inFlight{{9, 0, 7}, {2, 0, 5}, {30, 0, 900}, {7, 0, 5}, {1, 0, 7}, {4, 0, 3}},
		want:     []uint64{4, 2, 7, 1, 9},
		kept:     []uint64{30},
	}, {
		// The cycle-6 cluster spans both channels with IDs interleaved
		// across them, and channel 1 holds the oldest request (ID 2):
		// retiring channel 0's requests first would fire 5 before 2.
		name:     "cross-channel",
		channels: 2,
		buf:      []inFlight{{5, 0, 6}, {90, 0, 900}, {3, 0, 6}, {2, 1, 6}, {7, 1, 3}, {91, 1, 900}},
		want:     []uint64{7, 2, 3, 5},
		kept:     []uint64{90, 91},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newEdgeController(t, 4, tc.channels)
			var fired []uint64
			for th := 0; th < 4; th++ {
				c.SetReadConsumer(th, consumerFunc(func(_ int64, r *Request) { fired = append(fired, r.ID) }))
			}
			c.inFlight = c.inFlight[:0]
			for _, f := range tc.buf {
				r := &Request{
					ID:         f.id,
					Thread:     int(f.id) % 4,
					Loc:        dram.Location{Channel: f.ch},
					Started:    true,
					CASIssued:  true,
					CompleteAt: f.at,
				}
				c.bankServiceInc(r)
				c.inFlight = append(c.inFlight, r)
			}
			c.completeFinished(10)
			if !reflect.DeepEqual(fired, tc.want) {
				t.Fatalf("completion order = %v, want %v (CompleteAt, then ID)", fired, tc.want)
			}
			var kept []uint64
			for _, r := range c.inFlight {
				kept = append(kept, r.ID)
			}
			if !reflect.DeepEqual(kept, tc.kept) {
				t.Fatalf("in-flight after retirement = %v, want %v", kept, tc.kept)
			}
		})
	}
}
