package sim

import (
	"testing"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
	"stfm/internal/trace"
)

// TestSchedulingCacheOracle is the oracle for the controller's
// scheduling caches: the per-bank winner memos, the enqueue folds, the
// occupied-bank masks and the channel horizons. A dense-ticked run is
// no oracle for them, since it calls the same Controller.Tick, which
// reads the same caches. Instead every scheduler steps whole systems
// one cycle at a time with System.Tick, and after every cycle
// Controller.CheckInvariants recomputes each bank's level-1 winner
// from scratch and requires every reusable memo to name it and no used
// horizon to skip an edge at which it is ready. The runs must also
// exercise what they check: horizon skips, memo hits and enqueue folds
// under every scheduler, PAR-BS's batches included. The fork cases warm
// up under STFM or FR-FCFS and switch to each scheduler mid-run, so the
// check also covers SwitchPolicy's reset of the memos and horizons, and
// they require a fresh target to be installed after the switch.
// FR-FCFS's order epoch is always zero, like a fresh target's, so its
// stale memos would pass the epoch check: that cell is where the memo
// reset is load-bearing.
func TestSchedulingCacheOracle(t *testing.T) {
	refresh := dram.DefaultTiming().WithRefresh()
	hbm, err := dram.PresetTiming(dram.HBM)
	if err != nil {
		t.Fatal(err)
	}
	hbm = hbm.WithRefresh()
	four := profilesByName(t, "mcf", "libquantum", "GemsFDTD", "astar")
	eight := profilesByName(t, "mcf", "h264ref", "bzip2", "gromacs", "gobmk", "dealII", "wrf", "namd")
	cases := []struct {
		name   string
		instrs int64
		profs  []trace.Profile
		setup  func(*Config)
	}{
		{"4core-2ch-refresh", 2_500, four, func(c *Config) {
			c.Channels = 2
			c.Timing = &refresh
		}},
		{"4core-HBM-refresh", 2_500, four, func(c *Config) {
			c.Protocol = dram.HBM
			c.Timing = &hbm
		}},
		{"8core-cache", 2_000, eight, func(c *Config) { c.UseCaches = true }},
		{"4core-2ch-fork", 2_500, four, func(c *Config) {
			c.Channels = 2
			c.ForkAtCycle = 30_000
			c.WarmupPolicy = PolicySTFM
		}},
		{"4core-2ch-fork-frfcfs", 2_500, four, func(c *Config) {
			c.Channels = 2
			c.ForkAtCycle = 30_000
			c.WarmupPolicy = PolicyFRFCFS
		}},
	}
	for _, tc := range cases {
		for _, pol := range ExtendedPolicies() {
			t.Run(tc.name+"/"+string(pol), func(t *testing.T) {
				cfg := DefaultConfig(pol, len(tc.profs))
				cfg.InstrTarget = tc.instrs
				tc.setup(&cfg)
				s, err := NewSystem(cfg, tc.profs)
				if err != nil {
					t.Fatal(err)
				}
				warmupSTFM := s.STFM()
				for !s.allFrozen() {
					if s.now >= 2_000_000 {
						t.Fatalf("threads still running after %d cycles", s.now)
					}
					s.Tick()
					if err := s.ctrl.CheckInvariants(s.now); err != nil {
						t.Fatalf("after cycle %d: %v", s.now-1, err)
					}
				}
				if cfg.ForkAtCycle > 0 {
					if s.now <= cfg.ForkAtCycle {
						t.Fatalf("the run ended at cycle %d, before its switch at %d", s.now, cfg.ForkAtCycle)
					}
					got := s.ctrl.Policy()
					if got.Name() != string(pol) || got != s.policy || (s.STFM() != nil) != (pol == PolicySTFM) ||
						warmupSTFM != nil && s.STFM() == warmupSTFM {
						t.Errorf("after the switch the controller runs %s, want a fresh %s", got.Name(), pol)
					}
				}
				w := s.ctrl.Work()
				t.Logf("%d cycles: %+v", s.now, w)
				if w.HorizonSkips == 0 {
					t.Error("no horizon skip was exercised")
				}
				if w.MemoHits == 0 || w.EnqueueFolds == 0 {
					t.Errorf("memo hits (%d) and enqueue folds (%d) were not both exercised", w.MemoHits, w.EnqueueFolds)
				}
			})
		}
	}
}

// TestControllerWorkDeterministic: the controller's and the engine's
// work counters are a function of the configuration alone — two runs
// give identical counts — every command the controller counts as issued
// is one a DRAM channel recorded, and a dense run executes one step per
// simulated cycle.
func TestControllerWorkDeterministic(t *testing.T) {
	profs := profilesByName(t, "mcf", "libquantum", "GemsFDTD", "astar")
	type counts struct {
		ctrl   memctrl.Work
		engine Work
	}
	for _, pol := range ExtendedPolicies() {
		cfg := DefaultConfig(pol, len(profs))
		cfg.Channels = 2
		cfg.InstrTarget = 5_000
		run := func(cfg Config) (counts, *Result) {
			s, err := NewSystem(cfg, profs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			w := s.Controller().Work()
			var cmds int64
			for ch := 0; ch < cfg.Channels; ch++ {
				st := s.Controller().Channel(ch).Stats()
				cmds += st.Activates + st.Precharges + st.Reads + st.Writes
			}
			if w.CommandsIssued != cmds {
				t.Errorf("%s: %d commands counted as issued, the channels recorded %d", pol, w.CommandsIssued, cmds)
			}
			return counts{w, s.Work()}, res
		}
		a, _ := run(cfg)
		if b, _ := run(cfg); a != b {
			t.Errorf("%s: work counters differ between identical runs:\n%+v\n%+v", pol, a, b)
		}
		cfg.DenseTick = true
		if c, res := run(cfg); c.engine.Steps != res.TotalCycles {
			t.Errorf("%s: a dense run took %d steps for %d cycles", pol, c.engine.Steps, res.TotalCycles)
		}
	}
}
