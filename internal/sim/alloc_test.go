package sim

import (
	"testing"

	"stfm/internal/trace"
)

// TestSystemSteadyStateZeroAllocs pins the allocation-free step: once
// warm, advancing a whole system — trace generation, cores, the cache
// hierarchy, the controller and its policy — allocates nothing per
// simulated cycle. Recycled requests, the instruction window's value
// ring, completions by tag and the View's copy-free thread masks are
// what make it hold; a regression here brings back GC work proportional to
// simulated accesses. Telemetry is off (its sampler appends by design).
//
// A queue whose depth the workload sets can still grow past its
// high-water mark now and then — the cache-mode writeback retry queue,
// which the model does not bound, is the one the write-heavy streams
// reach. AllocsPerRun reports the per-window mean rounded down, so such
// rare growth passes while any per-access allocation, hundreds per
// window, fails.
func TestSystemSteadyStateZeroAllocs(t *testing.T) {
	for _, pol := range AllPolicies() {
		t.Run("direct/"+string(pol), func(t *testing.T) {
			cfg := DefaultConfig(pol, 4)
			cfg.Channels = 1
			cfg.InstrTarget = 1 << 40 // no thread freezes inside the window
			s, err := NewSystem(cfg, profilesByName(t, "mcf", "libquantum", "omnetpp", "lbm"))
			if err != nil {
				t.Fatal(err)
			}
			assertStepZeroAllocs(t, s, 300_000, nil)
		})
	}
	for _, pol := range []PolicyKind{PolicyFRFCFS, PolicySTFM} {
		t.Run("cache/"+string(pol), func(t *testing.T) {
			s := newCacheAllocSystem(t, pol)
			writeFull := false
			assertStepZeroAllocs(t, s, 1_000_000, func() {
				if !s.ctrl.CanAcceptWrite() {
					writeFull = true
				}
			})
			if !writeFull {
				t.Error("the write-heavy streams never filled the DRAM write buffer; the retried-writeback path went unexercised")
			}
		})
	}
}

// newCacheAllocSystem builds an 8-core, 2-channel cache-mode system
// whose streams mix L1- and L2-resident hot sets with two write-heavy
// streams that sweep a footprint beyond L2: their store misses dirty
// every line they allocate, so evictions fill the 32-entry DRAM write
// buffer and queue retried writebacks in the hierarchies. The writers
// are paced so the retry backlog stays bounded (the model has no
// back-pressure from it to the core): a warm run then reaches a steady
// state in which every buffer has found its high-water mark.
func newCacheAllocSystem(t *testing.T, pol PolicyKind) *System {
	t.Helper()
	kinds := []trace.CacheWorkload{
		{Name: "l1fit", HotLines: 256, HotFraction: 0.95, ColdLines: 100_000, StoreFraction: 0.2, Gap: 8},
		{Name: "l2fit", HotLines: 6000, HotFraction: 0.95, ColdLines: 100_000, StoreFraction: 0.2, Gap: 8},
		{Name: "writer", HotLines: 64, HotFraction: 0.05, ColdLines: 200_000, StoreFraction: 0.9, Gap: 40},
	}
	pattern := []int{0, 1, 2, 0, 1, 0, 1, 2}
	cfg := DefaultConfig(pol, len(pattern))
	cfg.Channels = 2
	cfg.UseCaches = true
	cfg.InstrTarget = 1 << 40
	var profs []trace.Profile
	for i, k := range pattern {
		st, err := trace.NewCacheStream(kinds[k], i, 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Streams = append(cfg.Streams, st)
		profs = append(profs, profilesByName(t, "mcf")...)
	}
	s, err := NewSystem(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertStepZeroAllocs warms s up for warm cycles, then requires a
// stepped window of cycles to allocate nothing. observe, if non-nil,
// runs after every step of the measured windows.
func assertStepZeroAllocs(t *testing.T, s *System, warm int64, observe func()) {
	t.Helper()
	advance(s, warm, nil)
	if allocs := testing.AllocsPerRun(20, func() { advance(s, 20_000, observe) }); allocs != 0 {
		t.Errorf("steady-state step allocates %.2f times per 20k cycles, want 0", allocs)
	}
}

// advance steps s through n cycles the way RunContext does, jumping
// over cycles in which no component can act.
func advance(s *System, n int64, observe func()) {
	end := s.now + n
	for s.now < end {
		next := s.step()
		if observe != nil {
			observe()
		}
		if next > s.now {
			s.now = min(next, end)
		}
	}
}
