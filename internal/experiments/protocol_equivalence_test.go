package experiments

import (
	"reflect"
	"testing"

	"stfm/internal/dram"
	"stfm/internal/sim"
)

// TestProtocolEquivalence extends the dense-vs-event differential test
// to every protocol pack. DDR4 (bank groups, tCCD_L/tCCD_S) and HBM
// (bank groups plus doubled channels) carry timing rules that did not
// exist when the event engine was written; DDR2, DDR3 and GDDR5 step
// the same engine under their own timing. Every implemented scheduler
// must produce bit-identical Results under dense per-cycle ticking and
// event-driven jumping — the bank-group CAS spacing feeds
// CommandReadyAt, so a horizon that under-reports it would make the
// event engine issue early and diverge here. -short keeps the two
// bank-grouped packs.
func TestProtocolEquivalence(t *testing.T) {
	t.Parallel()
	mix := []string{"mcf", "libquantum", "GemsFDTD", "astar"}
	protos := []dram.Protocol{dram.DDR2, dram.DDR3, dram.DDR4, dram.GDDR5, dram.HBM}
	if testing.Short() {
		protos = []dram.Protocol{dram.DDR4, dram.HBM}
	}
	for _, proto := range protos {
		for _, pol := range sim.ExtendedPolicies() {
			proto, pol := proto, pol
			t.Run(string(proto)+"/"+string(pol), func(t *testing.T) {
				t.Parallel()
				profiles, err := Profiles(mix...)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.DefaultConfig(pol, len(profiles))
				cfg.Protocol = proto
				cfg.InstrTarget = 8_000
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
					t.Errorf("dense and event-driven results diverge under %s\ndense: %+v\nevent: %+v", proto, dense, event)
				}
			})
		}
	}
}

// TestProtocolEquivalenceRefresh covers the per-bank refresh path the
// same way: HBM with refresh enabled rotates single-bank refreshes
// through each channel, and the event engine must land on every
// refresh edge exactly as dense ticking does.
func TestProtocolEquivalenceRefresh(t *testing.T) {
	t.Parallel()
	profiles, err := Profiles("mcf", "libquantum")
	if err != nil {
		t.Fatal(err)
	}
	tm, err := dram.PresetTiming(dram.HBM)
	if err != nil {
		t.Fatal(err)
	}
	tm = tm.WithRefresh()
	cfg := sim.DefaultConfig(sim.PolicySTFM, len(profiles))
	cfg.Protocol = dram.HBM
	cfg.Timing = &tm
	cfg.InstrTarget = 8_000
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
		t.Errorf("per-bank refresh dense and event results diverge\ndense: %+v\nevent: %+v", dense, event)
	}
}
