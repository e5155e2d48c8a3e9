package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stfm/internal/experiments"
	"stfm/internal/sim"
	"stfm/internal/store"
)

// The result-store suite at the server: which store a job's Result
// lives in, that it survives a restart, and that a damaged spill is
// rerun, never served. The store's own decoder and quarantine rules are
// tested in internal/store.

var cacheWorkload = []string{"mcf", "libquantum"}

func mustNew(t *testing.T, opts Options) *Server {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// runOnce submits cfg to srv, waits for it, and returns its result.
func runOnce(t *testing.T, srv *Server, cfg sim.Config, workload []string) ResultResponse {
	t.Helper()
	id := submitOne(t, srv, cfg, workload)
	if info := waitServerDone(t, srv, id); info.Status != StatusDone {
		t.Fatalf("job finished %s (%s), want done", info.Status, info.Error)
	}
	rr, _ := srv.Result(id)
	return rr
}

func spillNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCacheMemory: a memory-only server serves a resubmission from its
// result cache and counts one miss, one hit and one entry.
func TestCacheMemory(t *testing.T) {
	srv := mustNew(t, Options{Workers: 1})
	defer drainServer(t, srv)
	cfg := quickConfig(21)
	first := runOnce(t, srv, cfg, cacheWorkload)
	second := runOnce(t, srv, cfg, cacheWorkload)
	if first.Cached || !second.Cached || second.Result != first.Result {
		t.Fatalf("cached = %v then %v, want a miss then a hit on the same Result", first.Cached, second.Cached)
	}
	if st := srv.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 || st.Baseline != nil {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry and no baseline store", st)
	}
}

// TestCacheDiskSpillSurvivesRestart: a restarted server on the same
// cache directory serves a Result the previous one computed, exactly.
func TestCacheDiskSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(22)
	srv1 := mustNew(t, Options{Workers: 1, CacheDir: dir})
	want := runOnce(t, srv1, cfg, cacheWorkload)
	drainServer(t, srv1)

	srv2 := mustNew(t, Options{Workers: 1, CacheDir: dir})
	defer drainServer(t, srv2)
	got := runOnce(t, srv2, cfg, cacheWorkload)
	if !got.Cached {
		t.Fatal("restarted server missed a spilled Result")
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("spilled result drifted:\ngot  %+v\nwant %+v", got.Result, want.Result)
	}
}

// damagedSpillReruns computes a job on a server spilling to a fresh
// cache directory, damages the spill with mangle, and requires a
// restarted server to quarantine it and rerun the job to the identical
// Result instead of serving the damaged entry.
func damagedSpillReruns(t *testing.T, mangle func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	cfg := quickConfig(23)
	srv1 := mustNew(t, Options{Workers: 1, CacheDir: dir})
	want := runOnce(t, srv1, cfg, cacheWorkload)
	drainServer(t, srv1)
	path := filepath.Join(dir, store.Key(cfg, cacheWorkload)+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := mustNew(t, Options{Workers: 1, CacheDir: dir})
	defer drainServer(t, srv2)
	got := runOnce(t, srv2, cfg, cacheWorkload)
	if got.Cached {
		t.Fatal("damaged spill served as a hit")
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Error("rerun after a damaged spill differs from the original Result")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("damaged spill not quarantined: %v", err)
	}
}

// TestCacheCorruptSpillDegradesToMiss: a spill that is not JSON reads
// as a miss.
func TestCacheCorruptSpillDegradesToMiss(t *testing.T) {
	damagedSpillReruns(t, func([]byte) []byte { return []byte(`{"policy": tru`) })
}

// TestCacheEnvelopeDetectsBitFlip: a flipped digit inside the Result
// still parses as JSON; the checksum must catch it.
func TestCacheEnvelopeDetectsBitFlip(t *testing.T) {
	damagedSpillReruns(t, func(b []byte) []byte {
		i := bytes.Index(b, []byte(`"instructions":`))
		if i < 0 {
			t.Fatalf("spill has no result payload: %s", b)
		}
		b[i+len(`"instructions":`)] ^= 0x01
		return b
	})
}

// TestCacheZeroLengthEntryQuarantined: an empty spill (an interrupted
// copy) reads as a miss.
func TestCacheZeroLengthEntryQuarantined(t *testing.T) {
	damagedSpillReruns(t, func([]byte) []byte { return nil })
}

// TestCacheTruncatedEntryQuarantined: a spill cut short mid-envelope
// reads as a miss.
func TestCacheTruncatedEntryQuarantined(t *testing.T) {
	damagedSpillReruns(t, func(b []byte) []byte { return b[:len(b)/2] })
}

// TestKeyDistinguishesWorkloads: a job's key is store.Key of its config
// and ordered benchmark list, and its ID is one recovery accepts.
func TestKeyDistinguishesWorkloads(t *testing.T) {
	srv := mustNew(t, Options{Workers: 1})
	defer drainServer(t, srv)
	key := func(cfg sim.Config, workload ...string) string {
		t.Helper()
		j, err := srv.newJob(cfg, workload, 0)
		if err != nil {
			t.Fatal(err)
		}
		if j.fp != store.Key(cfg, workload) {
			t.Errorf("job key %s is not store.Key of its config and workload", j.fp)
		}
		if !issuedJobID(j.id) || !strings.HasSuffix(j.id, "-"+j.fp[:8]) {
			t.Errorf("job ID %q is not j<seq>-<key prefix>", j.id)
		}
		return j.fp
	}
	cfg := sim.DefaultConfig(sim.PolicySTFM, 2)
	base := key(cfg, "mcf", "libquantum")
	if key(cfg, "libquantum", "mcf") == base {
		t.Error("workload order does not change the key (it assigns cores)")
	}
	if key(cfg, "mcf") == base {
		t.Error("workload size does not change the key")
	}
	cfg.Seed = 99
	if key(cfg, "mcf", "libquantum") == base {
		t.Error("config changes do not change the key")
	}
}

// TestCacheChaosFaults: the cache.put and cache.get injection points
// reach the store through its fault hook. A corrupted spill is caught
// on the next server's load; a failed spill leaves the memory entry
// serving and no file; a failed load reads as a miss without
// quarantining the spill; a corrupted load quarantines it.
func TestCacheChaosFaults(t *testing.T) {
	cfg := quickConfig(24)
	path := func(dir string) string { return filepath.Join(dir, store.Key(cfg, cacheWorkload)+".json") }
	rerun := func(t *testing.T, dir string, chaos *Chaos) {
		t.Helper()
		srv := mustNew(t, Options{Workers: 1, CacheDir: dir, Chaos: chaos})
		defer drainServer(t, srv)
		if runOnce(t, srv, cfg, cacheWorkload).Cached {
			t.Error("faulted spill served as a hit")
		}
	}

	corrupted := t.TempDir()
	chaos := NewChaos(ChaosRule{Point: "cache.put", Visit: 1, Action: ActionCorrupt})
	srv := mustNew(t, Options{Workers: 1, CacheDir: corrupted, Chaos: chaos})
	runOnce(t, srv, cfg, cacheWorkload)
	if !runOnce(t, srv, cfg, cacheWorkload).Cached {
		t.Error("memory entry lost with a corrupted spill")
	}
	drainServer(t, srv)
	if chaos.Visits("cache.put") != 1 || chaos.Visits("cache.get") != 0 {
		t.Errorf("visits put=%d get=%d, want one spill and no load", chaos.Visits("cache.put"), chaos.Visits("cache.get"))
	}
	rerun(t, corrupted, nil)
	if _, err := os.Stat(path(corrupted) + ".corrupt"); err != nil {
		t.Errorf("corrupted spill not quarantined: %v", err)
	}

	failed := t.TempDir()
	srv = mustNew(t, Options{Workers: 1, CacheDir: failed, Chaos: NewChaos(ChaosRule{Point: "cache.put", Action: ActionError})})
	runOnce(t, srv, cfg, cacheWorkload)
	if !runOnce(t, srv, cfg, cacheWorkload).Cached {
		t.Error("memory entry lost with a failed spill")
	}
	drainServer(t, srv)
	if names := spillNames(t, failed); len(names) != 0 {
		t.Errorf("failed spill left %v", names)
	}

	rerun(t, failed, nil) // leaves a good spill
	getErr := NewChaos(ChaosRule{Point: "cache.get", Action: ActionError})
	rerun(t, failed, getErr)
	if getErr.Visits("cache.get") != 1 {
		t.Errorf("cache.get visited %d times, want 1", getErr.Visits("cache.get"))
	}
	if _, err := os.Stat(path(failed) + ".corrupt"); !os.IsNotExist(err) {
		t.Error("failed load quarantined the spill")
	}
	rerun(t, failed, NewChaos(ChaosRule{Point: "cache.get", Visit: 1, Action: ActionCorrupt}))
	if _, err := os.Stat(path(failed) + ".corrupt"); err != nil {
		t.Errorf("corrupted load not quarantined: %v", err)
	}
}

// TestOneSpillPerResult: with both directories set, an alone-shaped job
// spills exactly once, to the baseline store, and any other job exactly
// once, to the result cache. A batch Runner on the baseline directory
// then serves the server's alone run as a pure hit.
func TestOneSpillPerResult(t *testing.T) {
	cacheDir, baselineDir := t.TempDir(), t.TempDir()
	alone := sim.DefaultConfig(sim.PolicyFRFCFS, 1)
	alone.InstrTarget = 10_000
	alone.Seed = 1
	shared := sim.DefaultConfig(sim.PolicySTFM, 4)
	shared.InstrTarget = 5_000
	sharedWorkload := []string{"mcf", "libquantum", "GemsFDTD", "astar"}

	srv := mustNew(t, Options{Workers: 1, CacheDir: cacheDir, BaselineDir: baselineDir})
	aloneRes := runOnce(t, srv, alone, []string{"mcf"})
	runOnce(t, srv, shared, sharedWorkload)
	drainServer(t, srv)
	if got, want := spillNames(t, baselineDir), []string{store.Key(alone, []string{"mcf"}) + ".json"}; !reflect.DeepEqual(got, want) {
		t.Errorf("baseline directory holds %v, want %v", got, want)
	}
	if got, want := spillNames(t, cacheDir), []string{store.Key(shared, sharedWorkload) + ".json"}; !reflect.DeepEqual(got, want) {
		t.Errorf("cache directory holds %v, want %v", got, want)
	}

	baselines, err := store.Open(baselineDir)
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(experiments.Options{InstrTarget: 10_000, Seed: 1, Baseline: baselines})
	profs, err := experiments.Profiles("mcf")
	if err != nil {
		t.Fatal(err)
	}
	th, err := r.Alone(profs[0], alone.Channels)
	if err != nil {
		t.Fatal(err)
	}
	if st := baselines.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("runner stats = %+v, want a pure hit off the server's spill", st)
	}
	if th != aloneRes.Result.Threads[0] {
		t.Error("runner's baseline differs from the server's result")
	}
}
