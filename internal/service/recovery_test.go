package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"stfm/internal/experiments"
	"stfm/internal/sim"
	"stfm/internal/store"
)

// The recovery suite: crash the server at injected fault points mid-job
// and prove the contract of DESIGN.md §17 — after a restart over the
// same journal, no job is lost, no result is wrong (reflect.DeepEqual
// against an uninterrupted in-process run), and corrupt artifacts are
// quarantined instead of trusted.

// referenceResult runs cfg uninterrupted in-process.
func referenceResult(t *testing.T, cfg sim.Config, workload []string) *sim.Result {
	t.Helper()
	profs, err := experiments.Profiles(workload...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// submitOne submits a single-workload job directly (no HTTP).
func submitOne(t *testing.T, srv *Server, cfg sim.Config, workload []string) string {
	t.Helper()
	resp, err := srv.Submit(JobRequest{Config: cfg, Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 1 {
		t.Fatalf("submit created %d jobs, want 1", len(resp.Jobs))
	}
	return resp.Jobs[0].ID
}

// waitCrashed polls until the chaos point has fired, then drains the
// crashed server (its worker is already dead, so this returns quickly).
func waitCrashed(t *testing.T, srv *Server, chaos *Chaos, point string, visits int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for chaos.Visits(point) < visits {
		if time.Now().After(deadline) {
			t.Fatalf("chaos point %s never reached visit %d", point, visits)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// waitServerDone polls the server directly until the job is terminal.
func waitServerDone(t *testing.T, srv *Server, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s unknown to the server", id)
		}
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobInfo{}
}

func drainServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCrashBeforeFirstCheckpoint: the worker dies at the very
// first checkpoint attempt, so nothing but the journal survives. The
// restarted server must re-run the job from scratch and produce the
// exact uninterrupted result.
func TestRecoveryCrashBeforeFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(11)
	workload := []string{"mcf", "libquantum"}
	want := referenceResult(t, cfg, workload)

	chaos := NewChaos(ChaosRule{Point: "checkpoint.write", Visit: 1, Action: ActionCrash})
	srv1, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	id := submitOne(t, srv1, cfg, workload)
	waitCrashed(t, srv1, chaos, "checkpoint.write", 1)

	srv2, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone {
		t.Fatalf("recovered job finished %s (error %q), want done", info.Status, info.Error)
	}
	if !info.Recovered {
		t.Error("recovered job not marked Recovered")
	}
	if info.ResumedFromCycle != 0 {
		t.Errorf("job resumed from cycle %d; no checkpoint survived, want a from-scratch run", info.ResumedFromCycle)
	}
	rr, _ := srv2.Result(id)
	if !reflect.DeepEqual(rr.Result, want) {
		t.Error("recovered result differs from the uninterrupted run")
	}
}

// TestRecoveryResumesFromCheckpoint: two checkpoints persist before the
// crash. The restarted server must resume from the latest — visible as
// ResumedFromCycle — and still produce the bit-exact result, which is
// the service-level extension of the sim-layer equivalence gate.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(12)
	cfg.Policy = sim.PolicySTFM
	workload := []string{"mcf", "libquantum"}
	want := referenceResult(t, cfg, workload)

	chaos := NewChaos(ChaosRule{Point: "checkpoint.write", Visit: 3, Action: ActionCrash})
	srv1, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	id := submitOne(t, srv1, cfg, workload)
	waitCrashed(t, srv1, chaos, "checkpoint.write", 3)

	srv2, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone {
		t.Fatalf("recovered job finished %s (error %q), want done", info.Status, info.Error)
	}
	if !info.Recovered {
		t.Error("recovered job not marked Recovered")
	}
	if info.ResumedFromCycle != 80_000 {
		t.Errorf("job resumed from cycle %d, want 80000 (the second checkpoint)", info.ResumedFromCycle)
	}
	rr, _ := srv2.Result(id)
	if !reflect.DeepEqual(rr.Result, want) {
		t.Error("resumed result differs from the uninterrupted run")
	}
}

// TestRecoveryCorruptCheckpointQuarantined: the only persisted
// checkpoint is corrupt (injected bit flip before the write). Restore
// must reject it, quarantine the artifact as .corrupt, and fall back to
// a from-scratch run — recomputation, never a wrong result.
func TestRecoveryCorruptCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(13)
	workload := []string{"mcf", "libquantum"}
	want := referenceResult(t, cfg, workload)

	chaos := NewChaos(
		ChaosRule{Point: "checkpoint.write", Visit: 1, Action: ActionCorrupt},
		ChaosRule{Point: "checkpoint.write", Visit: 2, Action: ActionCrash},
	)
	srv1, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	id := submitOne(t, srv1, cfg, workload)
	waitCrashed(t, srv1, chaos, "checkpoint.write", 2)

	srv2, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone {
		t.Fatalf("recovered job finished %s (error %q), want done", info.Status, info.Error)
	}
	if info.ResumedFromCycle != 0 {
		t.Errorf("job resumed from cycle %d despite a corrupt checkpoint", info.ResumedFromCycle)
	}
	quarantined := filepath.Join(dir, "checkpoints", id+".ckpt.corrupt")
	if _, err := os.Stat(quarantined); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
	rr, _ := srv2.Result(id)
	if !reflect.DeepEqual(rr.Result, want) {
		t.Error("recovered result differs from the uninterrupted run")
	}
}

// TestRecoveryCrashDuringJournalAppend: the worker dies mid-append of
// the start record, leaving a torn journal line. Replay must truncate
// it silently and still recover the job from its submit record.
func TestRecoveryCrashDuringJournalAppend(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(14)
	workload := []string{"mcf", "libquantum"}
	want := referenceResult(t, cfg, workload)

	// Visit 1 is the submit record; visit 2 is the worker's start record.
	chaos := NewChaos(ChaosRule{Point: "wal.append", Visit: 2, Action: ActionCrash})
	srv1, err := New(Options{Workers: 1, JournalDir: dir, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	id := submitOne(t, srv1, cfg, workload)
	waitCrashed(t, srv1, chaos, "wal.append", 2)

	srv2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone || !info.Recovered {
		t.Fatalf("recovered job = %s recovered=%v, want done/recovered", info.Status, info.Recovered)
	}
	rr, _ := srv2.Result(id)
	if !reflect.DeepEqual(rr.Result, want) {
		t.Error("recovered result differs from the uninterrupted run")
	}
}

// TestRecoveryTerminalJobsSurviveRestart: completed state is durable —
// a done job is served from the result cache without re-running, a
// failed job keeps its status and error, and neither is re-enqueued.
func TestRecoveryTerminalJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cacheDir := t.TempDir()
	cfg := quickConfig(15)
	workload := []string{"mcf", "libquantum"}

	srv1, err := New(Options{Workers: 1, JournalDir: dir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	doneID := submitOne(t, srv1, cfg, workload)
	if info := waitServerDone(t, srv1, doneID); info.Status != StatusDone {
		t.Fatalf("job finished %s, want done", info.Status)
	}
	doneResult, _ := srv1.Result(doneID)

	failCfg := longConfig(15)
	resp, err := srv1.Submit(JobRequest{Config: failCfg, Workload: workload, TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	failID := resp.Jobs[0].ID
	if info := waitServerDone(t, srv1, failID); info.Status != StatusFailed {
		t.Fatalf("deadline job finished %s, want failed", info.Status)
	}
	drainServer(t, srv1)

	srv2, err := New(Options{Workers: 1, JournalDir: dir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)

	info, ok := srv2.Job(doneID)
	if !ok || info.Status != StatusDone || !info.Recovered || !info.Cached {
		t.Fatalf("done job after restart = %+v, want done/recovered/cached immediately", info)
	}
	rr, _ := srv2.Result(doneID)
	if !reflect.DeepEqual(rr.Result, doneResult.Result) {
		t.Error("done job's result drifted across restart")
	}

	failInfo, ok := srv2.Job(failID)
	if !ok || failInfo.Status != StatusFailed {
		t.Fatalf("failed job after restart = %+v, want failed", failInfo)
	}
	if failInfo.Error == "" {
		t.Error("failed job lost its error across restart")
	}

	// Both jobs are terminal: the restarted server's queue must be empty.
	if depth := srv2.Stats().QueueDepth; depth != 0 {
		t.Errorf("restarted server re-enqueued %d terminal jobs", depth)
	}
}

// TestRecoveryCanceledQueuedJobStaysCanceled: canceling a queued job
// writes its terminal record, so a restart does not resurrect it.
func TestRecoveryCanceledQueuedJobStaysCanceled(t *testing.T) {
	dir := t.TempDir()
	// No workers: submitted jobs stay queued, so Cancel hits the
	// queued path deterministically.
	srv1, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker with a long job, then cancel a queued one.
	longID := submitOne(t, srv1, longConfig(16), []string{"mcf", "libquantum"})
	queuedID := submitOne(t, srv1, quickConfig(16), []string{"mcf", "libquantum"})
	if info, _ := srv1.Cancel(queuedID); info.Status != StatusCanceled {
		t.Fatalf("canceled queued job = %s, want canceled", info.Status)
	}
	srv1.Cancel(longID)
	waitServerDone(t, srv1, longID)
	drainServer(t, srv1)

	srv2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info, ok := srv2.Job(queuedID)
	if !ok || info.Status != StatusCanceled {
		t.Fatalf("canceled job after restart = %+v, want canceled", info)
	}
}

// TestRecoveryJobIDsDoNotCollide: the restarted server's ID sequence
// continues past every journaled job.
func TestRecoveryJobIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(17)
	workload := []string{"mcf", "libquantum"}
	srv1, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id1 := submitOne(t, srv1, cfg, workload)
	waitServerDone(t, srv1, id1)
	drainServer(t, srv1)

	srv2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	cfg2 := quickConfig(18)
	id2 := submitOne(t, srv2, cfg2, workload)
	if id1 == id2 {
		t.Fatalf("restarted server reissued job ID %s", id2)
	}
	if parseJobSeq(id2) <= parseJobSeq(id1) {
		t.Errorf("job sequence went backwards: %s after %s", id2, id1)
	}
}

// writeJournal writes records as journal lines with valid checksums, as
// a damaged or foreign writer could; raw JSON objects let a record
// carry fields this server does not write.
func writeJournal(t *testing.T, dir string, records ...map[string]any) {
	t.Helper()
	var buf []byte
	for i, r := range records {
		r["seq"] = i + 1
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		buf = append(buf, hex.EncodeToString(sum[:])...)
		buf = append(buf, ' ')
		buf = append(buf, payload...)
		buf = append(buf, '\n')
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func submitRecord(id string, cfg sim.Config) map[string]any {
	return map[string]any{"type": walSubmit, "job": id, "config": cfg, "workload": cacheWorkload}
}

// requireUntouched fails unless path still holds "keep me" and was not
// quarantined.
func requireUntouched(t *testing.T, path string) {
	t.Helper()
	if data, err := os.ReadFile(path); err != nil || string(data) != "keep me" {
		t.Errorf("%s was touched: %q, %v", path, data, err)
	}
	if _, err := os.Stat(path + ".corrupt"); !os.IsNotExist(err) {
		t.Errorf("%s was quarantined", path)
	}
}

func writeVictim(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryIgnoresJournaledFingerprint: a done job whose submit
// record carries a path-like fingerprint is looked up under the key
// recomputed from its config and workload; the named file is never
// read or quarantined.
func TestRecoveryIgnoresJournaledFingerprint(t *testing.T) {
	root := t.TempDir()
	victim := filepath.Join(root, "victim.json")
	writeVictim(t, victim)
	cfg := quickConfig(31)
	const id = "j1-0123abcd"
	submit := submitRecord(id, cfg)
	submit["fingerprint"] = "../victim"
	writeJournal(t, filepath.Join(root, "journal"), submit,
		map[string]any{"type": walComplete, "job": id, "status": StatusDone})

	srv := mustNew(t, Options{Workers: 1, JournalDir: filepath.Join(root, "journal"), CacheDir: filepath.Join(root, "cache")})
	info := waitServerDone(t, srv, id)
	drainServer(t, srv)
	requireUntouched(t, victim)
	if info.Status != StatusDone || info.Fingerprint != store.Key(cfg, cacheWorkload) {
		t.Errorf("recovered job = %s under key %s, want done under its recomputed key", info.Status, info.Fingerprint)
	}
}

// TestRecoveryDropsForeignJobIDs: a submit record whose ID the server
// could not have issued is dropped at boot, so the ID never names a
// checkpoint file to write or delete.
func TestRecoveryDropsForeignJobIDs(t *testing.T) {
	root := t.TempDir()
	victim := filepath.Join(root, "victim.ckpt")
	writeVictim(t, victim)
	journal := filepath.Join(root, "journal")
	writeJournal(t, journal, submitRecord("../../victim", quickConfig(32)))

	srv := mustNew(t, Options{Workers: 1, JournalDir: journal, CheckpointEvery: 40_000})
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Errorf("recovered %d jobs from a foreign ID, want none", len(jobs))
	}
	drainServer(t, srv) // a recovered job would run to completion here
	requireUntouched(t, victim)
}

// TestRecoveryIgnoresJournaledCheckpointPath: recovery reads a job's
// checkpoint only at the path derived from its ID; a path journaled in
// a checkpoint record is never read or quarantined.
func TestRecoveryIgnoresJournaledCheckpointPath(t *testing.T) {
	root := t.TempDir()
	victim := filepath.Join(root, "victim.dat")
	writeVictim(t, victim)
	cfg := quickConfig(33)
	want := referenceResult(t, cfg, cacheWorkload)
	const id = "j1-0123abcd"
	journal := filepath.Join(root, "journal")
	writeJournal(t, journal, submitRecord(id, cfg),
		map[string]any{"type": walCheckpoint, "job": id, "cycle": 40_000, "path": victim})

	srv := mustNew(t, Options{Workers: 1, JournalDir: journal})
	info := waitServerDone(t, srv, id)
	drainServer(t, srv)
	requireUntouched(t, victim)
	if info.Status != StatusDone || info.ResumedFromCycle != 0 {
		t.Fatalf("recovered job = %s from cycle %d, want done from scratch", info.Status, info.ResumedFromCycle)
	}
	if rr, _ := srv.Result(id); !reflect.DeepEqual(rr.Result, want) {
		t.Error("recovered result differs from the uninterrupted run")
	}
}

// TestRecoveryRejectsForeignSnapshot: a valid snapshot of another run
// (STFM, seed 12) at an FR-FCFS seed-13 job's checkpoint path is
// quarantined; the job runs from scratch to its own Result, which is
// what a later identical submission is then served.
func TestRecoveryRejectsForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(13)
	want := referenceResult(t, cfg, cacheWorkload)
	other := quickConfig(12)
	other.Policy = sim.PolicySTFM
	profs, err := experiments.Profiles(cacheWorkload...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.NewSystem(other, profs)
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	if _, err := sys.RunCheckpointed(context.Background(), &sim.CheckpointSink{
		Every: 40_000,
		Write: func(_ int64, data []byte) error {
			if snap == nil {
				snap = append([]byte(nil), data...)
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	id := "j1-" + store.Key(cfg, cacheWorkload)[:8]
	ckpt := filepath.Join(dir, "checkpoints", id+".ckpt")
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir, submitRecord(id, cfg),
		map[string]any{"type": walCheckpoint, "job": id, "cycle": 40_000, "path": ckpt})

	srv := mustNew(t, Options{Workers: 1, JournalDir: dir})
	defer drainServer(t, srv)
	info := waitServerDone(t, srv, id)
	if info.Status != StatusDone || info.ResumedFromCycle != 0 {
		t.Fatalf("recovered job = %s from cycle %d, want done from scratch", info.Status, info.ResumedFromCycle)
	}
	if rr, _ := srv.Result(id); !reflect.DeepEqual(rr.Result, want) {
		t.Errorf("recovered job finished with another run's Result (policy %s)", rr.Result.Policy)
	}
	if _, err := os.Stat(ckpt + ".corrupt"); err != nil {
		t.Errorf("foreign snapshot not quarantined: %v", err)
	}
	if again := runOnce(t, srv, cfg, cacheWorkload); !again.Cached || !reflect.DeepEqual(again.Result, want) {
		t.Error("a resubmission was not served the job's own Result")
	}
}

// TestRecoveryResumesSparseConfig: a job submitted with the sparse JSON
// config an HTTP client sends (fields NewSystem defaults left out)
// still resumes from its own checkpoint.
func TestRecoveryResumesSparseConfig(t *testing.T) {
	dir := t.TempDir()
	var cfg sim.Config
	if err := json.Unmarshal([]byte(`{"policy": "FR-FCFS", "instrTarget": 20000}`), &cfg); err != nil {
		t.Fatal(err)
	}
	want := referenceResult(t, cfg, cacheWorkload)

	chaos := NewChaos(ChaosRule{Point: "checkpoint.write", Visit: 2, Action: ActionCrash})
	srv1 := mustNew(t, Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000, Chaos: chaos})
	id := submitOne(t, srv1, cfg, cacheWorkload)
	waitCrashed(t, srv1, chaos, "checkpoint.write", 2)

	srv2 := mustNew(t, Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000})
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone || info.ResumedFromCycle != 40_000 {
		t.Fatalf("recovered job = %s from cycle %d, want done from its checkpoint at 40000", info.Status, info.ResumedFromCycle)
	}
	if rr, _ := srv2.Result(id); !reflect.DeepEqual(rr.Result, want) {
		t.Error("resumed result differs from the uninterrupted run")
	}
}

// TestRecoveryResumesForkChild: a fork child checkpoints as its own
// fork-shaped config, so after a crash it resumes from that checkpoint
// instead of rejecting it as another run's. Its last checkpoint before
// the crash is the one at the switch cycle, which carries the target
// policy.
func TestRecoveryResumesForkChild(t *testing.T) {
	dir, cacheDir := t.TempDir(), t.TempDir()
	cfg := quickConfig(34)
	child := cfg
	child.Policy = sim.PolicySTFM
	child.ForkAtCycle = 40_000
	child.WarmupPolicy = cfg.Policy
	want := referenceResult(t, child, cacheWorkload)

	// The parent writes one checkpoint per 40k cycles of its run; the
	// child's first lands at 40k, the switch cycle, and the crash at its
	// second.
	profs, err := experiments.Profiles(cacheWorkload...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.NewSystem(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	parentCkpts := 0
	if _, err := sys.RunCheckpointed(context.Background(), &sim.CheckpointSink{
		Every: 40_000,
		Write: func(int64, []byte) error { parentCkpts++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	chaos := NewChaos(ChaosRule{Point: "checkpoint.write", Visit: parentCkpts + 2, Action: ActionCrash})
	opts := Options{Workers: 1, JournalDir: dir, CacheDir: cacheDir, CheckpointEvery: 40_000}
	crashing := opts
	crashing.Chaos = chaos
	srv1 := mustNew(t, crashing)
	parentID := submitOne(t, srv1, cfg, cacheWorkload)
	waitServerDone(t, srv1, parentID)
	forked, err := srv1.Fork(parentID, ForkRequest{Policies: []sim.PolicyKind{sim.PolicySTFM}, AtCycle: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	id := forked.Jobs[0].ID
	waitCrashed(t, srv1, chaos, "checkpoint.write", parentCkpts+2)

	srv2 := mustNew(t, opts)
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone || info.ResumedFromCycle != 40_000 {
		t.Fatalf("recovered fork child = %s from cycle %d, want done from its checkpoint at 40000", info.Status, info.ResumedFromCycle)
	}
	if rr, _ := srv2.Result(id); !reflect.DeepEqual(rr.Result, want) {
		t.Error("resumed fork child differs from a cold run of its config")
	}
}
