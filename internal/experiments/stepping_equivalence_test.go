package experiments

import (
	"reflect"
	"testing"

	"stfm/internal/dram"
	"stfm/internal/sim"
	"stfm/internal/trace"
)

// TestEquivalence is the differential test behind the event-driven
// stepping refactor: for every workload × policy pair it runs the
// identical simulation under dense per-cycle ticking and under
// event-driven time advancement and requires the *entire* Result —
// per-thread cycles, instructions, MCPI, row-hit rates, latency
// percentiles, bus utilization, STFM unfairness and fairness-mode
// fraction — to match field for field. Event-driven stepping is only
// allowed to skip cycles it can prove are dead, so any divergence here
// is a bug in a component's reported horizon, not acceptable noise.
func TestEquivalence(t *testing.T) {
	t.Parallel()
	workloads := []struct {
		name string
		mix  []string
		// setup, if non-nil, adjusts the config before each run.
		setup func(*testing.T, *sim.Config)
	}{
		// Figure 6's case-study mix: two intensive threads (one
		// low-RB-hit, one streaming) against two non-intensive ones.
		{"fig6-4core", []string{"mcf", "libquantum", "GemsFDTD", "astar"}, nil},
		// A 2-thread mix pairing the most intensive benchmark with a
		// bursty, sparse one — the workload shape with the most dead
		// cycles, i.e. the most opportunity for a skipping bug.
		{"2thread-sparse", []string{"mcf", "h264ref"}, nil},
		// Full L1/L2 hierarchy mode: cache-hit completions and
		// writeback retries take different event paths than the direct
		// miss-stream port.
		{"2thread-caches", []string{"mcf", "dealII"}, func(_ *testing.T, c *sim.Config) { c.UseCaches = true }},
		// Store-heavy cache streams whose footprint, hot set included,
		// exceeds L2: dirty evictions outrun the DRAM write buffer, so
		// refused writebacks queue in the hierarchies and retry only on
		// cycles the controller ticks (cache.Hierarchy.Due).
		{"2thread-writeback", []string{"mcf", "mcf"}, writebackSetup},
	}
	policies := []sim.PolicyKind{
		sim.PolicyFRFCFS,
		sim.PolicySTFM,
		sim.PolicyNFQ,
		sim.PolicyTCM,
	}
	for _, wl := range workloads {
		for _, pol := range policies {
			wl, pol := wl, pol
			t.Run(wl.name+"/"+string(pol), func(t *testing.T) {
				t.Parallel()
				profiles, err := Profiles(wl.mix...)
				if err != nil {
					t.Fatal(err)
				}
				base := sim.DefaultConfig(pol, len(profiles))
				base.InstrTarget = 20_000
				base.MinMisses = 40
				system := func(dense bool) *sim.System {
					cfg := base
					cfg.DenseTick = dense
					if wl.setup != nil {
						wl.setup(t, &cfg)
					}
					sys, err := sim.NewSystem(cfg, profiles)
					if err != nil {
						t.Fatal(err)
					}
					return sys
				}
				dense, err := system(true).Run()
				if err != nil {
					t.Fatalf("dense run: %v", err)
				}
				event, err := system(false).Run()
				if err != nil {
					t.Fatalf("event run: %v", err)
				}
				if !reflect.DeepEqual(dense, event) {
					t.Errorf("dense and event-driven results diverge\ndense: %+v\nevent: %+v", dense, event)
				}
				if wl.name != "2thread-writeback" {
					return
				}
				// The cell must exercise what it is for: at some point of
				// the run, a hierarchy holds refused writebacks.
				sys := system(false)
				for sys.Now() < event.TotalCycles {
					sys.Tick()
					if sys.Now()%1000 != 0 {
						continue
					}
					for i := range profiles {
						if len(sys.Hierarchy(i).SaveState().PendingWB) > 0 {
							return
						}
					}
				}
				t.Error("no refused writeback was ever pending")
			})
		}
	}
}

// writebackSetup is the 2thread-writeback cell's setup: DDR4 over two
// channels, so the write-allocate fills reach the dirty-eviction phase
// early (about cycle 120k), a target that runs well past it, and two
// store-heavy trace.CacheStreams built afresh for each run.
func writebackSetup(t *testing.T, c *sim.Config) {
	w := trace.CacheWorkload{Name: "writer", HotLines: 16_000, HotFraction: 0.1, ColdLines: 200_000, StoreFraction: 0.9, Gap: 2}
	c.UseCaches = true
	c.InstrTarget = 40_000
	c.Protocol = dram.DDR4
	c.Channels = 2
	c.Streams = nil
	for i := 0; i < 2; i++ {
		s, err := trace.NewCacheStream(w, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.Streams = append(c.Streams, s)
	}
}

// TestEquivalenceTruncated pins down the MaxCycles corner: when a run
// is cut off mid-flight, the event-driven engine must clamp its final
// jump so truncated threads freeze at exactly the same cycle — with
// exactly the same bulk-accounted stall counters — as under dense
// ticking.
func TestEquivalenceTruncated(t *testing.T) {
	t.Parallel()
	profiles, err := Profiles("mcf", "astar")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(sim.PolicyFRFCFS, len(profiles))
	cfg.InstrTarget = 50_000
	cfg.MaxCycles = 123_457 // deliberately not a DRAM-edge multiple

	cfg.DenseTick = true
	dense, err := sim.Run(cfg, profiles)
	if err != nil {
		t.Fatalf("dense run: %v", err)
	}
	cfg.DenseTick = false
	event, err := sim.Run(cfg, profiles)
	if err != nil {
		t.Fatalf("event run: %v", err)
	}
	if !reflect.DeepEqual(dense, event) {
		t.Errorf("truncated dense and event-driven results diverge\ndense: %+v\nevent: %+v", dense, event)
	}
	for _, th := range dense.Threads {
		if !th.Truncated {
			t.Errorf("%s: expected a truncated thread under MaxCycles=%d", th.Benchmark, cfg.MaxCycles)
		}
	}
}

// TestCheckedEquivalence extends the differential test to the
// robustness layer: turning on the invariant self-checks and a tight
// watchdog window must not perturb the schedule. The checks are
// read-only and observe at fixed cycle boundaries (event jumps clamp to
// them exactly like sampling boundaries), so a checked run — dense or
// event-driven — must be bit-identical to an unchecked one.
func TestCheckedEquivalence(t *testing.T) {
	t.Parallel()
	profiles, err := Profiles("mcf", "libquantum", "GemsFDTD", "astar")
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig(sim.PolicySTFM, len(profiles))
	base.InstrTarget = 20_000
	base.MinMisses = 40

	run := func(dense, checked bool) *sim.Result {
		cfg := base
		cfg.DenseTick = dense
		if checked {
			cfg.CheckInvariants = true
			cfg.WatchdogCycles = 7_001 // deliberately not a DRAM-edge multiple
		}
		res, err := sim.Run(cfg, profiles)
		if err != nil {
			t.Fatalf("dense=%v checked=%v: %v", dense, checked, err)
		}
		return res
	}
	plain := run(false, false)
	for _, c := range []struct {
		name  string
		dense bool
	}{{"event", false}, {"dense", true}} {
		if got := run(c.dense, true); !reflect.DeepEqual(plain, got) {
			t.Errorf("%s checked run diverges from unchecked\nplain:   %+v\nchecked: %+v", c.name, plain, got)
		}
	}
}

// TestParallelEquivalence runs every implemented scheduler on Figure
// 6's four-core mix spread over two channels, dense and event-driven,
// and requires both Results to match. The write-heavy GemsFDTD stream
// matters here: write-drain hysteresis is controller-global, so its
// flips couple the two channels' arbitration, and a horizon that missed
// one diverges on exactly this kind of mix. (The name dates from the
// channel-parallel engine, DESIGN.md §16, which this test also
// compared against; the dense-vs-event half is what remains.)
func TestParallelEquivalence(t *testing.T) {
	t.Parallel()
	mix := []string{"mcf", "libquantum", "GemsFDTD", "astar"}
	for _, pol := range sim.ExtendedPolicies() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			profiles, err := Profiles(mix...)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(pol, len(profiles))
			cfg.Channels = 2
			cfg.InstrTarget = 12_000
			cfg.MinMisses = 30

			cfg.DenseTick = true
			dense, err := sim.Run(cfg, profiles)
			if err != nil {
				t.Fatalf("dense run: %v", err)
			}
			cfg.DenseTick = false
			event, err := sim.Run(cfg, profiles)
			if err != nil {
				t.Fatalf("event run: %v", err)
			}
			if !reflect.DeepEqual(dense, event) {
				t.Errorf("dense and event results diverge\ndense: %+v\nevent: %+v", dense, event)
			}
		})
	}
}

// TestEquivalenceAllPoliciesMultiChannel extends the matrix to every
// implemented scheduler — the paper's five plus the follow-up PAR-BS
// and TCM — on an 8-core, 2-channel mix. The multi-channel 8-core shape
// is where the indexed scheduler state earns its keep (per-bank winner
// memos, cached channel horizons, per-core gating with lazy idle
// accounting all active at once), so every policy must still match the
// dense oracle bit for bit there. Skipped under -short: seven 8-core
// dense runs dominate the package's test time.
func TestEquivalenceAllPoliciesMultiChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("seven dense 8-core runs; skipped under -short")
	}
	t.Parallel()
	mix := []string{"mcf", "h264ref", "bzip2", "gromacs", "gobmk", "dealII", "wrf", "namd"}
	for _, pol := range sim.ExtendedPolicies() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			profiles, err := Profiles(mix...)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(pol, len(profiles))
			cfg.InstrTarget = 10_000
			cfg.MinMisses = 30

			cfg.DenseTick = true
			dense, err := sim.Run(cfg, profiles)
			if err != nil {
				t.Fatalf("dense run: %v", err)
			}
			cfg.DenseTick = false
			event, err := sim.Run(cfg, profiles)
			if err != nil {
				t.Fatalf("event run: %v", err)
			}
			if !reflect.DeepEqual(dense, event) {
				t.Errorf("dense and event-driven results diverge\ndense: %+v\nevent: %+v", dense, event)
			}
		})
	}
}
