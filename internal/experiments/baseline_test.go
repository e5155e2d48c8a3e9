package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stfm/internal/sim"
	"stfm/internal/store"
)

// TestBaselineSingleflight pins the runner's per-key deduplication:
// many goroutines asking for the same baseline must trigger exactly one
// alone run, and all of them must receive its result.
func TestBaselineSingleflight(t *testing.T) {
	r := NewRunner(Options{InstrTarget: 15_000, Seed: 1})
	profs, err := Profiles("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	results := make([]sim.ThreadResult, callers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := r.Alone(profs[0], 1)
			if err != nil {
				t.Error(err)
			}
			results[i] = a
		}()
	}
	wg.Wait()
	for i := range results {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different baseline", i)
		}
	}
	if st := r.Baseline().Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
}

// TestBaselineComputeFailureDoesNotPoison pins the retry semantics
// across runners sharing a store: an alone run that fails (here, on a
// canceled runner) surfaces its error, and the next runner asking for
// the same baseline computes it instead of inheriting the failure.
func TestBaselineComputeFailureDoesNotPoison(t *testing.T) {
	shared := new(store.Store)
	opts := Options{InstrTarget: 15_000, Seed: 1, Baseline: shared}
	profs, err := Profiles("mcf")
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRunnerContext(canceled, opts).Alone(profs[0], 1); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("canceled runner's alone run returned %v, want ErrCanceled", err)
	}
	got, err := NewRunner(opts).Alone(profs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRunner(Options{InstrTarget: 15_000, Seed: 1}).Alone(profs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("baseline computed after a failure differs from a fresh one")
	}
	if st := shared.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 computes and 1 stored baseline", st)
	}
}

// TestBaselineDiskSharing pins the cross-process contract: a runner on
// a second store (standing in for a second process) opened on the same
// directory serves the first runner's baselines as hits, and the
// loaded Results are bit-identical to the computed ones.
func TestBaselineDiskSharing(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRunner(Options{InstrTarget: 15_000, Seed: 1, Baseline: openStore(t, dir)})
	profs, err := Profiles("mcf", "libquantum")
	if err != nil {
		t.Fatal(err)
	}
	var first []sim.ThreadResult
	for _, p := range profs {
		a, err := r1.Alone(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, a)
	}
	if st := r1.Baseline().Stats(); st.Misses != int64(len(profs)) {
		t.Fatalf("first runner stats = %+v, want %d misses", st, len(profs))
	}

	r2 := NewRunner(Options{InstrTarget: 15_000, Seed: 1, Baseline: openStore(t, dir)})
	for i, p := range profs {
		a, err := r2.Alone(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, first[i]) {
			t.Errorf("%s: disk-loaded baseline differs from computed", p.Name)
		}
	}
	st := r2.Baseline().Stats()
	if st.Hits != int64(len(profs)) || st.Misses != 0 {
		t.Errorf("second runner stats = %+v, want %d pure hits", st, len(profs))
	}
}

// TestBaselineCorruptionQuarantine pins quarantine-as-miss at the
// runner: damaged spill files (truncated, bit-flipped, wrong version,
// checksum mismatch) are renamed to .corrupt and recomputed, never
// served.
func TestBaselineCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(Options{InstrTarget: 15_000, Seed: 1, Baseline: openStore(t, dir)})
	profs, err := Profiles("mcf")
	if err != nil {
		t.Fatal(err)
	}
	good, err := r.Alone(profs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key(r.aloneConfig(1), []string{profs[0].Name})
	path := filepath.Join(dir, key+".json")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip":    func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)/2] ^= 0x40; return c },
		"garbage":    func([]byte) []byte { return []byte("not json at all") },
		"badversion": func(b []byte) []byte { return reenvelope(t, b, "v", 99) },
		"badsum":     func(b []byte) []byte { return reenvelope(t, b, "sum", strings.Repeat("0", 64)) },
	}
	for name, mangle := range damage {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mangle(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			// A fresh store (cold memory) must refuse the damaged entry,
			// quarantine it, and recompute an identical baseline.
			r2 := NewRunner(Options{InstrTarget: 15_000, Seed: 1, Baseline: openStore(t, dir)})
			a, err := r2.Alone(profs[0], 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, good) {
				t.Error("recomputed baseline differs from the original")
			}
			if st := r2.Baseline().Stats(); st.Misses != 1 || st.Hits != 0 || st.Quarantined != 1 {
				t.Errorf("stats = %+v, want the damaged entry to count as a quarantined miss", st)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("damaged entry not quarantined: %v", err)
			}
			os.Remove(path + ".corrupt")
		})
	}
}

// reenvelope decodes a spilled envelope, sets one field, and re-encodes
// it.
func reenvelope(t *testing.T, data []byte, field string, value any) []byte {
	t.Helper()
	env := map[string]any{}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env[field] = value
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
