package sim

import (
	"fmt"
	"strings"
	"testing"

	"stfm/internal/dram"
)

// forkTestConfig is the shared base for the fork-equivalence suites:
// small enough to run the full policy × protocol matrix under -race,
// long enough that the switch cycle lands mid-run.
func forkTestConfig(target PolicyKind, protocol dram.Protocol) Config {
	cfg := DefaultConfig(target, 2)
	cfg.InstrTarget = 20_000
	cfg.MinMisses = 0
	cfg.Protocol = protocol
	return cfg
}

// runScratchSwitch runs the fork oracle: one uninterrupted run that
// switches from the warm-up policy to cfg.Policy at the given cycle.
func runScratchSwitch(t *testing.T, cfg Config, warmup PolicyKind, at int64, names ...string) *Result {
	t.Helper()
	cfg.ForkAtCycle = at
	cfg.WarmupPolicy = warmup
	return runReference(t, cfg, names...)
}

// TestForkEquivalence is the fork-mode checkpoint contract under the
// stateless FR-FCFS warm-up: see checkForkEquivalence.
func TestForkEquivalence(t *testing.T) {
	checkForkEquivalence(t, PolicyFRFCFS)
}

// TestForkEquivalenceStatefulWarmup is the same contract under the
// stateful STFM warm-up: snapshots before the switch carry its
// registers, those at and after it only the target's, and an STFM
// target is a fresh instance even though the kinds match.
func TestForkEquivalenceStatefulWarmup(t *testing.T) {
	checkForkEquivalence(t, PolicySTFM)
}

// checkForkEquivalence checks, for every target policy and two protocol
// packs under the given warm-up scheduler, that a fork-mode run
// checkpointed every ForkAtCycle/2 cycles matches the uninterrupted
// run, and so does a resume from each of its snapshots. Snapshots
// before the switch carry the warm-up scheduler and switch on resume;
// the one at the switch and those after it carry the target and must
// not switch again.
func checkForkEquivalence(t *testing.T, warmup PolicyKind) {
	const switchAt = 60_000
	for _, pol := range ExtendedPolicies() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			for _, proto := range []dram.Protocol{dram.DDR2, dram.DDR4} {
				proto := proto
				t.Run(string(proto), func(t *testing.T) {
					t.Parallel()
					t.Run("warmup-"+string(warmup), func(t *testing.T) {
						cfg := forkTestConfig(pol, proto)
						cfg.ForkAtCycle = switchAt
						cfg.WarmupPolicy = warmup
						ref := runReference(t, cfg, "mcf", "libquantum")
						res, snaps := captureCheckpoints(t, cfg, switchAt/2, "mcf", "libquantum")
						assertResultsEqual(t, "checkpointed fork run", res, ref)
						if len(snaps) < 3 {
							t.Fatalf("%d snapshots; need one before, at and after the switch", len(snaps))
						}
						for i, snap := range snaps {
							assertResultsEqual(t, fmt.Sprintf("resume from snapshot %d", i), resumeFrom(t, snap), ref)
						}
					})
				})
			}
		})
	}
}

// TestForkSwitchAfterRunEnd pins the degenerate fork: when the run
// freezes (or hits the cycle budget) before the switch cycle, the
// switch never fires and the run is the warm-up scheduler's plain run.
// Note the target policy is still the one reported: finish() labels the
// Result with cfg.Policy.
func TestForkSwitchAfterRunEnd(t *testing.T) {
	cfg := forkTestConfig(PolicySTFM, "")
	const wayPast = int64(1) << 40
	oracle := runScratchSwitch(t, cfg, PolicyFRFCFS, wayPast, "mcf", "libquantum")
	if oracle.Policy != PolicySTFM {
		t.Errorf("oracle Result.Policy = %q, want STFM (the fork target)", oracle.Policy)
	}
	if oracle.STFMUnfairness != 0 || oracle.STFMFairnessFraction != 0 {
		t.Errorf("switch never fired, but STFM diagnostics are nonzero: %v %v",
			oracle.STFMUnfairness, oracle.STFMFairnessFraction)
	}
	cfg.Policy = PolicyFRFCFS
	plain := runReference(t, cfg, "mcf", "libquantum")
	plain.Policy = PolicySTFM
	assertResultsEqual(t, "fork past run end vs plain warm-up run", oracle, plain)
}

// TestForkDenseEquivalence pins that the fork switch lands on the same
// cycle under dense ticking: the event engine's jump clamping and the
// dense loop must process the switch edge identically.
func TestForkDenseEquivalence(t *testing.T) {
	const switchAt = 60_000
	cfg := forkTestConfig(PolicySTFM, "")
	event := runScratchSwitch(t, cfg, PolicyFRFCFS, switchAt, "mcf", "libquantum")
	cfg.DenseTick = true
	dense := runScratchSwitch(t, cfg, PolicyFRFCFS, switchAt, "mcf", "libquantum")
	assertResultsEqual(t, "dense vs event scratch switch", dense, event)
}

// TestForkConfigValidation pins the fork knobs' validation rules.
func TestForkConfigValidation(t *testing.T) {
	cfg := DefaultConfig(PolicySTFM, 2)
	cfg.ForkAtCycle = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ForkAtCycle validated")
	}
	cfg = DefaultConfig(PolicySTFM, 2)
	cfg.WarmupPolicy = PolicyFRFCFS
	if err := cfg.Validate(); err == nil {
		t.Error("WarmupPolicy without ForkAtCycle validated")
	}
	cfg = DefaultConfig(PolicySTFM, 2)
	cfg.ForkAtCycle = 1000
	cfg.WarmupPolicy = "bogus"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown WarmupPolicy validated")
	}
	cfg = DefaultConfig(PolicySTFM, 2)
	cfg.ForkAtCycle = 1000
	cfg.WarmupPolicy = PolicyPARBS
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid fork config rejected: %v", err)
	}
}

// TestForkFingerprint pins the fork knobs' fingerprint encoding: a
// disabled fork shares the plain digest, an active fork gets its own,
// and the resolved warm-up default shares the explicit FR-FCFS digest.
func TestForkFingerprint(t *testing.T) {
	plain := DefaultConfig(PolicySTFM, 2)
	forked := plain
	forked.ForkAtCycle = 60_000
	if plain.Fingerprint() != DefaultConfig(PolicySTFM, 2).Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
	if forked.Fingerprint() == plain.Fingerprint() {
		t.Error("active fork shares the plain digest")
	}
	explicit := forked
	explicit.WarmupPolicy = PolicyFRFCFS
	if explicit.Fingerprint() != forked.Fingerprint() {
		t.Error("explicit FR-FCFS warm-up and the empty default have different digests")
	}
	stfmWarm := forked
	stfmWarm.WarmupPolicy = PolicySTFM
	if stfmWarm.Fingerprint() == forked.Fingerprint() {
		t.Error("different warm-up policies share a digest")
	}
}

// TestForkTargetBuiltAtConstruction: NewSystem builds a fork's target
// as well as its warm-up scheduler, so a target that cannot be built
// (NFQ with one weight for two threads) fails construction instead of
// the run at the switch, and the unused target is not what STFM()
// reports before the switch.
func TestForkTargetBuiltAtConstruction(t *testing.T) {
	profs := profilesByName(t, "mcf", "libquantum")
	bad := forkTestConfig(PolicyNFQ, "")
	bad.NFQWeights = []float64{1}
	bad.ForkAtCycle = 60_000
	if err := bad.Validate(); err != nil {
		t.Fatalf("the case needs a config Validate accepts: %v", err)
	}
	if _, err := NewSystem(bad, profs); err == nil || !strings.Contains(err.Error(), "weights") {
		t.Errorf("NewSystem with an unbuildable fork target: got %v, want the NFQ weights error", err)
	}

	cfg := forkTestConfig(PolicySTFM, "")
	cfg.ForkAtCycle = 10_000
	s, err := NewSystem(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	for s.Now() < cfg.ForkAtCycle {
		if s.STFM() != nil {
			t.Fatalf("cycle %d: STFM() reports the target under the FR-FCFS warm-up", s.Now())
		}
		s.Tick()
	}
	s.Tick()
	if st := s.STFM(); st == nil || s.Controller().Policy() != st {
		t.Error("Tick did not install the STFM target at the switch cycle")
	}
}
