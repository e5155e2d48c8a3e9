package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
	"stfm/internal/trace"
)

// runReference runs cfg uninterrupted and returns the Result.
func runReference(t *testing.T, cfg Config, names ...string) *Result {
	t.Helper()
	ref, err := Run(cfg, profilesByName(t, names...))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// captureCheckpoints runs cfg under RunCheckpointed and returns the
// Result plus every snapshot taken.
func captureCheckpoints(t *testing.T, cfg Config, every int64, names ...string) (*Result, [][]byte) {
	t.Helper()
	s, err := NewSystem(cfg, profilesByName(t, names...))
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	res, err := s.RunCheckpointed(context.Background(), &CheckpointSink{
		Every: every,
		Write: func(cycle int64, data []byte) error {
			snaps = append(snaps, append([]byte(nil), data...))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, snaps
}

// resumeFrom restores a snapshot and runs it to completion.
func resumeFrom(t *testing.T, snap []byte) *Result {
	t.Helper()
	s, err := Restore(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertResultsEqual is the bit-exactness gate: Results must be
// reflect.DeepEqual, floats included.
func assertResultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: results diverge\ngot:  %+v\nwant: %+v", label, got, want)
	}
}

// TestRunCheckpointedEquivalence pins that taking checkpoints does not
// perturb the schedule: the supervised run's Result equals the plain
// run's across every policy.
func TestRunCheckpointedEquivalence(t *testing.T) {
	for _, pol := range ExtendedPolicies() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(pol, 2)
			cfg.InstrTarget = 20_000
			ref := runReference(t, cfg, "mcf", "libquantum")
			got, snaps := captureCheckpoints(t, cfg, 40_000, "mcf", "libquantum")
			assertResultsEqual(t, "checkpointed run", got, ref)
			if len(snaps) == 0 {
				t.Fatal("run took no checkpoints; lower Every or raise InstrTarget")
			}
		})
	}
}

// TestCheckpointRestoreEquivalence is the core crash-safety gate:
// restoring any mid-run snapshot and continuing must reproduce the
// uninterrupted run's Result exactly, for every policy.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	for _, pol := range ExtendedPolicies() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(pol, 2)
			cfg.InstrTarget = 20_000
			ref := runReference(t, cfg, "mcf", "libquantum")
			_, snaps := captureCheckpoints(t, cfg, 40_000, "mcf", "libquantum")
			if len(snaps) == 0 {
				t.Fatal("no snapshots captured")
			}
			// Every snapshot must resume exactly — first, middle, last.
			for _, idx := range []int{0, len(snaps) / 2, len(snaps) - 1} {
				got := resumeFrom(t, snaps[idx])
				assertResultsEqual(t, fmt.Sprintf("resume from snapshot %d/%d", idx, len(snaps)), got, ref)
			}
		})
	}
}

// TestCheckpointRestoreProtocols extends the gate across the DRAM
// protocol packs: per-protocol timing/geometry state (activation
// windows, refresh cursors, bank groups) must round-trip.
func TestCheckpointRestoreProtocols(t *testing.T) {
	for _, proto := range dram.Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(PolicySTFM, 2)
			cfg.Protocol = proto
			cfg.Channels = 0 // exercise protocol channel auto-scaling
			cfg.InstrTarget = 15_000
			ref := runReference(t, cfg, "mcf", "GemsFDTD")
			_, snaps := captureCheckpoints(t, cfg, 40_000, "mcf", "GemsFDTD")
			if len(snaps) == 0 {
				t.Fatal("no snapshots captured")
			}
			got := resumeFrom(t, snaps[len(snaps)/2])
			assertResultsEqual(t, "resume", got, ref)
		})
	}
}

// TestCheckpointRestoreCacheMode extends the gate to the full L1/L2
// hierarchy: cache content, MSHRs, pending hit completions, and the
// tag-based callback re-linkage must all round-trip.
func TestCheckpointRestoreCacheMode(t *testing.T) {
	cfg := DefaultConfig(PolicySTFM, 2)
	cfg.UseCaches = true
	cfg.InstrTarget = 20_000
	ref := runReference(t, cfg, "mcf", "libquantum")
	_, snaps := captureCheckpoints(t, cfg, 40_000, "mcf", "libquantum")
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	for _, idx := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		got := resumeFrom(t, snaps[idx])
		assertResultsEqual(t, fmt.Sprintf("cache-mode resume from snapshot %d", idx), got, ref)
	}
}

// TestCheckpointRejectsStreams pins the documented limitation: systems
// over user-supplied streams do not checkpoint.
func TestCheckpointRejectsStreams(t *testing.T) {
	profs := profilesByName(t, "mcf")
	cfg := DefaultConfig(PolicyFRFCFS, 1)
	cfg.Streams = []trace.Stream{emptyStream{}}
	s, err := NewSystem(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Checkpoint()
	var cerr *CheckpointError
	if !errors.As(err, &cerr) || cerr.Stage != "save" {
		t.Fatalf("Checkpoint with Streams: got %v, want save-stage *CheckpointError", err)
	}
}

// TestRestoreRejectsCorruptEnvelope covers the envelope failure modes
// deterministically (the fuzz target explores beyond these).
func TestRestoreRejectsCorruptEnvelope(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 2)
	cfg.InstrTarget = 5_000
	s, err := NewSystem(cfg, profilesByName(t, "mcf", "hmmer"))
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)/2],
		"bad magic": append([]byte("NOTSTFM!"), good[8:]...),
		"bit flip":  flipBit(good, len(good)/2),
		"bad version": func() []byte {
			b := append([]byte(nil), good...)
			b[8]++
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := Restore(data, nil); err == nil {
			t.Errorf("%s: Restore accepted corrupt input", name)
		} else {
			var cerr *CheckpointError
			if !errors.As(err, &cerr) {
				t.Errorf("%s: got %T, want *CheckpointError", name, err)
			}
		}
	}
	// The pristine blob restores.
	if _, err := Restore(good, nil); err != nil {
		t.Errorf("pristine checkpoint failed to restore: %v", err)
	}
}

// TestRestoreRejectsDanglingTags corrupts the completion tags of a
// well-formed checkpoint, re-sealed with a valid checksum so that only
// Restore's tag check stands between the corruption and a system that
// strands or double-completes a load, and requires a *CheckpointError
// for each.
func TestRestoreRejectsDanglingTags(t *testing.T) {
	cases := []struct {
		name   string
		caches bool
		// corrupt edits the payload and reports whether it found
		// something to corrupt.
		corrupt func(p *checkpointPayload) bool
		want    string // in the error
	}{
		{"read tag names no load", false, func(p *checkpointPayload) bool {
			for i := range p.Controller.Requests {
				if rs := &p.Controller.Requests[i]; !rs.IsWrite {
					rs.Tag = -1
					return true
				}
			}
			return false
		}, "no in-flight load with issue seq -1"},
		{"two reads claim one load", false, func(p *checkpointPayload) bool {
			var first *memctrl.RequestState
			for i := range p.Controller.Requests {
				rs := &p.Controller.Requests[i]
				if rs.IsWrite {
					continue
				}
				if first != nil && rs.Thread == first.Thread {
					rs.Tag = first.Tag
					return true
				}
				if first == nil {
					first = rs
				}
			}
			return false
		}, "another read claims it"},
		{"read without an MSHR", true, func(p *checkpointPayload) bool {
			for i := range p.Controller.Requests {
				if rs := &p.Controller.Requests[i]; !rs.IsWrite {
					rs.LineAddr += 1 << 20
					return true
				}
			}
			return false
		}, "no outstanding miss"},
		{"MSHR waiter names no load", true, func(p *checkpointPayload) bool {
			for _, hs := range p.Hierarchies {
				for _, ms := range hs.Outstanding {
					if len(ms.WaiterTags) > 0 {
						ms.WaiterTags[0] = -1
						return true
					}
				}
			}
			return false
		}, "MSHR waiter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(PolicyFRFCFS, 2)
			cfg.InstrTarget = 50_000
			cfg.UseCaches = tc.caches
			s, err := NewSystem(cfg, profilesByName(t, "mcf", "libquantum"))
			if err != nil {
				t.Fatal(err)
			}
			good, err := s.CheckpointAt(context.Background(), 40_000)
			if err != nil {
				t.Fatal(err)
			}
			p, err := decodeCheckpoint(good)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.corrupt(p) {
				t.Fatal("the checkpoint has nothing this case can corrupt")
			}
			payload, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			var cerr *CheckpointError
			if _, err := Restore(sealCheckpoint(payload), nil); !errors.As(err, &cerr) || cerr.Stage != "restore" ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want a restore-stage *CheckpointError mentioning %q", err, tc.want)
			}
			if _, err := Restore(good, nil); err != nil {
				t.Fatalf("pristine checkpoint failed to restore: %v", err)
			}
		})
	}
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

// emptyStream is a user-supplied stream for the rejection test.
type emptyStream struct{}

func (emptyStream) Next() (trace.Access, bool) { return trace.Access{}, false }

// FuzzCheckpointDecode asserts the robustness contract: arbitrary
// bytes fed to Restore yield a structured *CheckpointError or a valid
// System — never a panic (Restore converts internal panics) and never
// a half-restored System alongside an error.
func FuzzCheckpointDecode(f *testing.F) {
	cfg := DefaultConfig(PolicySTFM, 2)
	cfg.InstrTarget = 5_000
	var profs []trace.Profile
	for _, n := range []string{"mcf", "libquantum"} {
		p, err := trace.ByName(n)
		if err != nil {
			f.Fatal(err)
		}
		profs = append(profs, p)
	}
	var seeds [][]byte
	if s, err := NewSystem(cfg, profs); err == nil {
		if data, err := s.Checkpoint(); err == nil {
			seeds = append(seeds, data)
			seeds = append(seeds, data[:len(data)-7])
			seeds = append(seeds, flipBit(data, len(data)/3))
		}
	}
	seeds = append(seeds, []byte(checkpointMagic), []byte("{}"), nil)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(data, nil)
		if err != nil {
			if s != nil {
				t.Fatal("Restore returned both a System and an error")
			}
			var cerr *CheckpointError
			if !errors.As(err, &cerr) {
				t.Fatalf("Restore error is %T (%v), want *CheckpointError", err, err)
			}
			return
		}
		if s == nil {
			t.Fatal("Restore returned neither a System nor an error")
		}
	})
}

// TestSimulatesAppliesDefaults: a system answers for its own config
// and workload, also when the config leaves out fields NewSystem
// defaults (a config decoded from a sparse JSON body), and for no
// other seed, policy or workload.
func TestSimulatesAppliesDefaults(t *testing.T) {
	names := []string{"mcf", "libquantum"}
	sparse := Config{Policy: PolicyFRFCFS, InstrTarget: 20_000}
	s, err := NewSystem(sparse, profilesByName(t, names...))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.CheckpointAt(context.Background(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*System{s, restored} {
		if !sys.Simulates(sparse, names) {
			t.Error("system does not identify as its own sparse config")
		}
		other := sparse
		other.Seed = 2
		stfm := sparse
		stfm.Policy = PolicySTFM
		if sys.Simulates(other, names) || sys.Simulates(stfm, names) ||
			sys.Simulates(sparse, []string{"libquantum", "mcf"}) || sys.Simulates(sparse, names[:1]) {
			t.Error("system identifies as another run")
		}
	}
}
