package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stfm/internal/sim"
)

func sampleResult() *sim.Result {
	return &sim.Result{
		Policy: sim.PolicySTFM,
		Threads: []sim.ThreadResult{
			{Benchmark: "mcf", Instructions: 300_000, Cycles: 1_000_000, IPC: 0.3, AvgReadLatency: 512.25},
		},
		TotalCycles:    1_000_000,
		BusUtilization: 0.5,
	}
}

var testKey = Key(sim.DefaultConfig(sim.PolicySTFM, 2), []string{"mcf", "libquantum"})

// TestKeyPinned pins one key as a golden digest: it is the stfm-server's
// job key for this run from before results and alone baselines shared a
// store, so spills and job IDs keep their addresses.
func TestKeyPinned(t *testing.T) {
	const want = "6c3f6cb921740808cb817001132994679bb056bccb661fd2f36fd64cb9d29181"
	if testKey != want {
		t.Errorf("Key = %s, want %s", testKey, want)
	}
}

// TestMemory: a memory-only store (the zero value) misses, then serves
// what was put, and counts both.
func TestMemory(t *testing.T) {
	var s Store
	if _, ok := s.Get(testKey); ok {
		t.Fatal("empty store reported a hit")
	}
	res := sampleResult()
	if err := s.Put(testKey, res); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(testKey); !ok || got != res {
		t.Fatalf("Get after Put = %v, %v", got, ok)
	}
	if st := s.Stats(); st != (Stats{Entries: 1, Hits: 1, Misses: 1}) {
		t.Errorf("stats = %+v, want 1 entry, 1 hit, 1 miss", st)
	}
}

// TestReopen: a second store on the same directory (a restarted or
// another process) serves the first one's spill, exactly, without
// computing; the spill is the only file in the directory.
func TestReopen(t *testing.T) {
	dir := t.TempDir()
	first, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult()
	if err := first.Put(testKey, res); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{testKey + ".json"}) {
		t.Errorf("directory holds %v, want only the spill", names)
	}
	second, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := second.Do(context.Background(), testKey, func() (*sim.Result, error) {
		t.Error("reopened store recomputed a spilled entry")
		return nil, errors.New("unreachable")
	})
	if err != nil || !reflect.DeepEqual(got, res) {
		t.Fatalf("reopened Do = %+v, %v; want the spilled Result", got, err)
	}
	if st := second.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want a pure hit", st)
	}
}

// TestQuarantine: every damaged or foreign spill reads as a miss, is
// renamed to .corrupt, and is counted; the next Put rewrites it.
func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey, sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, testKey+".json")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := Key(sim.DefaultConfig(sim.PolicyNFQ, 1), []string{"mcf"})
	misnamed, err := encode(other, sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip":   func(b []byte) []byte { c := bytes.Clone(b); c[len(c)/2] ^= 0x40; return c },
		// A flipped digit inside the result still parses as JSON; only
		// the checksum catches it.
		"digitflip": func(b []byte) []byte {
			c := bytes.Clone(b)
			i := bytes.Index(c, []byte(`"instructions":3`))
			if i < 0 {
				t.Fatalf("envelope has no result payload: %s", c)
			}
			c[i+len(`"instructions":`)] ^= 0x01
			return c
		},
		"garbage": func([]byte) []byte { return []byte("not json at all") },
		"empty":   func([]byte) []byte { return nil },
		// The v1 format: no key, otherwise a valid entry.
		"v1": func(b []byte) []byte {
			return reenvelope(t, b, func(e map[string]any) { e["v"] = 1; delete(e, "key") })
		},
		"badsum": func(b []byte) []byte {
			return reenvelope(t, b, func(e map[string]any) { e["sum"] = "00" + e["sum"].(string)[2:] })
		},
		// A valid entry of another key, copied to this key's name.
		"misnamed": func([]byte) []byte { return misnamed },
	}
	for name, mangle := range damage {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mangle(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			cold, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cold.Get(testKey); ok {
				t.Fatal("damaged entry served as a hit")
			}
			if st := cold.Stats(); st.Quarantined != 1 || st.Misses != 1 {
				t.Errorf("stats = %+v, want 1 miss and 1 quarantine", st)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("damaged entry not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("damaged entry still present under its live name")
			}
			if err := cold.Put(testKey, sampleResult()); err != nil {
				t.Fatal(err)
			}
			if _, ok := mustOpen(t, dir).Get(testKey); !ok {
				t.Error("Put did not rewrite the quarantined entry")
			}
			os.Remove(path + ".corrupt")
		})
	}
}

// reenvelope decodes, mutates, and re-encodes a spilled envelope.
func reenvelope(t *testing.T, data []byte, mutate func(map[string]any)) []byte {
	t.Helper()
	env := map[string]any{}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	mutate(env)
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestForeignKeysStayInMemory: a key that is not a Key output never
// reaches the filesystem: Get misses without reading outside the
// directory, and Put keeps the entry in memory but fails its spill.
func TestForeignKeysStayInMemory(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	victim := filepath.Join(root, "victim.json")
	if err := os.WriteFile(victim, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	for _, key := range []string{"../victim", "k", testKey[:63], "6C" + testKey[2:]} {
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit on an empty store", key)
		}
		if err := s.Put(key, sampleResult()); err == nil {
			t.Errorf("Put(%q) spilled a foreign key", key)
		}
		if _, ok := s.Get(key); !ok {
			t.Errorf("Put(%q) lost the memory entry", key)
		}
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != "keep me" {
		t.Errorf("file outside the store touched: %q, %v", data, err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Errorf("foreign keys wrote %v", names)
	}
	if names := dirNames(t, root); !reflect.DeepEqual(names, []string{"store", "victim.json"}) {
		t.Errorf("foreign keys wrote outside the store: %v", names)
	}
}

// TestDoSingleflight: concurrent callers for one key run one compute
// and all receive its Result.
func TestDoSingleflight(t *testing.T) {
	var s Store
	release := make(chan struct{})
	var computes atomic.Int64
	const callers = 16
	results := make([]*sim.Result, callers)
	var started, wg sync.WaitGroup
	for i := range results {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			res, err := s.Do(context.Background(), testKey, func() (*sim.Result, error) {
				computes.Add(1)
				<-release
				return sampleResult(), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	started.Wait()
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want exactly 1", n)
	}
	for i := range results {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different Result", i)
		}
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Inflight != 0 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
}

// TestDoRetriesAfterFailure: a failed compute returns its error to the
// caller that ran it; a caller waiting on it, and any later caller,
// computes again instead of inheriting the failure. A waiter whose
// context ends stops waiting.
func TestDoRetriesAfterFailure(t *testing.T) {
	var s Store
	boom := errors.New("boom")
	release := make(chan struct{})
	failed := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), "k", func() (*sim.Result, error) {
			<-release
			return nil, boom
		})
		failed <- err
	}()
	for s.Stats().Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(canceled, "k", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("waiter with a canceled context got %v", err)
	}
	want := sampleResult()
	got := make(chan *sim.Result, 1)
	go func() {
		res, err := s.Do(context.Background(), "k", func() (*sim.Result, error) { return want, nil })
		if err != nil {
			t.Error(err)
		}
		got <- res
	}()
	close(release)
	if err := <-failed; !errors.Is(err, boom) {
		t.Fatalf("computing caller got %v, want boom", err)
	}
	if res := <-got; res != want {
		t.Fatalf("retry after failure got %v, want the fresh Result", res)
	}
}

// TestFaultHook: the hook sees every spill and load and can fail or
// damage them; a damaged spill is caught on its next load, a failed
// spill leaves the memory entry serving, and a failed load is a miss
// that leaves the file in place.
func TestFaultHook(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, testKey+".json")
	injected := errors.New("injected")
	fail := func(string, []byte) ([]byte, error) { return nil, injected }

	s := mustOpen(t, dir)
	s.Fault = fail
	if err := s.Put(testKey, sampleResult()); !errors.Is(err, injected) {
		t.Fatalf("failed spill returned %v", err)
	}
	if _, ok := s.Get(testKey); !ok {
		t.Fatal("memory entry lost with its spill")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed spill left a file")
	}

	var ops []string
	s.Fault = func(op string, data []byte) ([]byte, error) {
		ops = append(ops, op)
		data[len(data)/2] ^= 0x40
		return data, nil
	}
	if err := s.Put(testKey, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustOpen(t, dir).Get(testKey); ok {
		t.Fatal("damaged spill served on reload")
	}

	if err := s.Put(testKey, sampleResult()); err != nil {
		t.Fatal(err)
	}
	cold := mustOpen(t, dir)
	cold.Fault = fail
	if _, ok := cold.Get(testKey); ok {
		t.Fatal("failed load served a hit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("failed load moved the spill: %v", err)
	}
	if !reflect.DeepEqual(ops, []string{"put", "put"}) {
		t.Errorf("hook saw %v, want two puts", ops)
	}
}

// TestWriteFileReplaces: WriteFile replaces the file whole and leaves
// no temp file behind.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, data := range []string{"first, and longer", "second"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != data {
			t.Errorf("file = %q, want %q", got, data)
		}
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"f"}) {
		t.Errorf("directory holds %v", names)
	}
	if err := Quarantine(filepath.Join(dir, "absent")); err != nil {
		t.Errorf("quarantining a missing file: %v", err)
	}
}

// FuzzDecode fuzzes the envelope decoder: arbitrary bytes must produce
// an error or a Result, never a panic, and an accepted entry must have
// been written under the key it was read with.
func FuzzDecode(f *testing.F) {
	const key = "fuzz"
	valid, err := encode(key, &sim.Result{Threads: []sim.ThreadResult{{Instructions: 1000, Cycles: 2000}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"v":1,"sum":"","result":null}`))
	f.Add([]byte(`{"v":2}`))
	f.Add([]byte(``))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decode(key, data); err != nil {
			return
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil || env.Key != key {
			t.Errorf("decoder accepted an entry written under %q", env.Key)
		}
	})
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func dirNames(t *testing.T, dir string) []string {
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
