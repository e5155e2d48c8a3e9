package sim

import (
	"context"
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

// runForked runs the checkpoint-fork path: a warm-up-only run to a
// checkpoint at the switch cycle, then a Restore with the Policy
// override and a continuation to completion.
func runForked(t *testing.T, cfg Config, warmup PolicyKind, at int64, names ...string) *Result {
	t.Helper()
	wcfg := cfg
	wcfg.Policy = warmup
	wcfg.ForkAtCycle = 0
	wcfg.WarmupPolicy = ""
	s, err := NewSystem(wcfg, profilesByName(t, names...))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.CheckpointAt(context.Background(), at)
	if err != nil {
		t.Fatal(err)
	}
	target := cfg.Policy
	forked, err := Restore(snap, &RestoreOptions{Policy: &target})
	if err != nil {
		t.Fatal(err)
	}
	res, err := forked.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestForkEquivalence is the fork-mode correctness contract: for every
// implemented target policy and across protocol packs, a warm-up run
// checkpointed at the switch cycle and forked under the target produces
// a Result reflect.DeepEqual to a scratch run that switches policy at
// the same cycle.
func TestForkEquivalence(t *testing.T) {
	const switchAt = 60_000
	protocols := []dram.Protocol{"", dram.DDR4}
	for _, proto := range protocols {
		for _, pol := range ExtendedPolicies() {
			pol, proto := pol, proto
			name := string(pol) + "/" + string(proto)
			if proto == "" {
				name = string(pol) + "/DDR2"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := forkTestConfig(pol, proto)
				oracle := runScratchSwitch(t, cfg, PolicyFRFCFS, switchAt, "mcf", "libquantum")
				forked := runForked(t, cfg, PolicyFRFCFS, switchAt, "mcf", "libquantum")
				assertResultsEqual(t, "fork vs scratch switch", forked, oracle)
			})
		}
	}
}

// TestForkEquivalenceStatefulWarmup pins that a stateful warm-up
// scheduler's registers are discarded identically on both paths: STFM
// warms up, FR-FCFS (stateless) and STFM (fresh instance, even though
// the kinds match) take over.
func TestForkEquivalenceStatefulWarmup(t *testing.T) {
	const switchAt = 60_000
	for _, target := range []PolicyKind{PolicyFRFCFS, PolicySTFM, PolicyNFQ} {
		target := target
		t.Run(string(target), func(t *testing.T) {
			t.Parallel()
			cfg := forkTestConfig(target, "")
			oracle := runScratchSwitch(t, cfg, PolicySTFM, switchAt, "mcf", "libquantum")
			forked := runForked(t, cfg, PolicySTFM, switchAt, "mcf", "libquantum")
			assertResultsEqual(t, "fork vs scratch switch (STFM warm-up)", forked, oracle)
		})
	}
}

// TestForkSwitchAfterRunEnd pins the degenerate fork: when the run
// freezes (or hits the cycle budget) before the switch cycle, the
// scratch oracle never switches and the checkpoint lands at the
// earlier quiescent point — and the two paths still agree. Note the
// target policy is still the one reported: finish() labels the Result
// with cfg.Policy on both paths.
func TestForkSwitchAfterRunEnd(t *testing.T) {
	cfg := forkTestConfig(PolicySTFM, "")
	const wayPast = int64(1) << 40
	oracle := runScratchSwitch(t, cfg, PolicyFRFCFS, wayPast, "mcf", "libquantum")
	forked := runForked(t, cfg, PolicyFRFCFS, wayPast, "mcf", "libquantum")
	assertResultsEqual(t, "fork past run end", forked, oracle)
	if oracle.Policy != PolicySTFM {
		t.Errorf("oracle Result.Policy = %q, want STFM (the fork target)", oracle.Policy)
	}
	if oracle.STFMUnfairness != 0 || oracle.STFMFairnessFraction != 0 {
		t.Errorf("switch never fired, but STFM diagnostics are nonzero: %v %v",
			oracle.STFMUnfairness, oracle.STFMFairnessFraction)
	}
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

// TestForkRunCheckpointedResume pins restore-and-continue of a
// fork-mode run's own periodic checkpoints, on both sides of the
// switch cycle: snapshots before it carry the warm-up scheduler and
// re-switch on resume; snapshots at-or-after it carry the target and
// must not switch again.
func TestForkRunCheckpointedResume(t *testing.T) {
	const switchAt = 60_000
	cfg := forkTestConfig(PolicySTFM, "")
	cfg.ForkAtCycle = switchAt
	cfg.WarmupPolicy = PolicyFRFCFS
	ref, snaps := captureCheckpoints(t, cfg, 40_000, "mcf", "libquantum")
	if len(snaps) < 2 {
		t.Fatalf("need snapshots on both sides of the switch, got %d", len(snaps))
	}
	for i, snap := range snaps {
		res := resumeFrom(t, snap)
		assertResultsEqual(t, "resume from fork-run snapshot", res, ref)
		_ = i
	}
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

// TestForkedRestoreCheckpointsAsScratchRun pins the identity a
// policy-override restore records: the forked system, and every
// checkpoint it takes, simulates the scratch fork config (not the plain
// target config), and such a checkpoint resumes to the scratch run's
// Result.
func TestForkedRestoreCheckpointsAsScratchRun(t *testing.T) {
	const switchAt = 60_000
	names := []string{"mcf", "libquantum"}
	cfg := forkTestConfig(PolicySTFM, "")
	scratch := cfg
	scratch.ForkAtCycle = switchAt
	scratch.WarmupPolicy = PolicyNFQ
	oracle := runReference(t, scratch, names...)

	warm := cfg
	warm.Policy = PolicyNFQ
	s, err := NewSystem(warm, profilesByName(t, names...))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.CheckpointAt(context.Background(), switchAt)
	if err != nil {
		t.Fatal(err)
	}
	target := PolicySTFM
	forked, err := Restore(snap, &RestoreOptions{Policy: &target})
	if err != nil {
		t.Fatal(err)
	}
	if !forked.Simulates(scratch, names) || forked.Simulates(cfg, names) {
		t.Fatal("forked system does not identify as the scratch fork run")
	}
	var snaps [][]byte
	res, err := forked.RunCheckpointed(context.Background(), &CheckpointSink{
		Every: 40_000,
		Write: func(_ int64, data []byte) error {
			snaps = append(snaps, append([]byte(nil), data...))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "checkpointed fork vs scratch switch", res, oracle)
	if len(snaps) == 0 {
		t.Fatal("forked run took no checkpoint")
	}
	resumed, err := Restore(snaps[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Simulates(scratch, names) {
		t.Error("forked run's checkpoint does not identify as the scratch fork run")
	}
	res, err = resumed.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "resume from forked run's checkpoint", res, oracle)
}
