package service

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stfm/internal/sim"
)

func walSubmitRecord(job string) walRecord {
	cfg := sim.DefaultConfig(sim.PolicySTFM, 2)
	return walRecord{
		Type:     walSubmit,
		Job:      job,
		Config:   &cfg,
		Workload: []string{"mcf", "libquantum"},
	}
}

// TestWALRoundTrip: records appended by one journal instance replay
// byte-identically in the next, with the sequence continuing.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, records, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(records))
	}
	appends := []walRecord{
		walSubmitRecord("j1-deadbeef"),
		{Type: walStart, Job: "j1-deadbeef"},
		{Type: walCheckpoint, Job: "j1-deadbeef", Cycle: 40_000},
		{Type: walComplete, Job: "j1-deadbeef", Status: StatusDone},
	}
	for _, r := range appends {
		if err := w.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	w2, records, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(records) != len(appends) {
		t.Fatalf("replayed %d records, want %d", len(records), len(appends))
	}
	for i, r := range records {
		if r.Seq != int64(i+1) {
			t.Errorf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
		if r.Type != appends[i].Type || r.Job != appends[i].Job || r.Cycle != appends[i].Cycle {
			t.Errorf("record %d = %+v, want %+v", i, r, appends[i])
		}
	}
	if records[0].Config == nil || records[0].Config.Policy != sim.PolicySTFM {
		t.Error("submit record lost its config")
	}
	if err := w2.append(walRecord{Type: walStart, Job: "j2-cafecafe"}); err != nil {
		t.Fatal(err)
	}
	if w2.seq != int64(len(appends))+1 {
		t.Errorf("sequence resumed at %d, want %d", w2.seq, len(appends)+1)
	}
}

// TestWALTornTailTruncated: a half-written final line — the residue of
// a crash mid-append — is silently truncated; the acknowledged prefix
// survives and the journal stays usable.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.append(walRecord{Type: walStart, Job: "j1-deadbeef"}); err != nil {
			t.Fatal(err)
		}
	}
	w.tear(walRecord{Type: walComplete, Job: "j1-deadbeef", Status: StatusDone})
	w.close()

	w2, records, err := openWAL(dir, nil)
	if err != nil {
		t.Fatalf("torn tail surfaced an error: %v", err)
	}
	defer w2.close()
	if len(records) != 3 {
		t.Fatalf("replayed %d records, want the 3 acknowledged ones", len(records))
	}
	if _, err := os.Stat(filepath.Join(dir, walName+".corrupt")); err == nil {
		t.Error("torn tail was quarantined; it should truncate silently")
	}
	if err := w2.append(walRecord{Type: walStart, Job: "j2-cafecafe"}); err != nil {
		t.Fatal(err)
	}
	_, records, err = openWAL(dir, nil)
	if err != nil || len(records) != 4 {
		t.Fatalf("journal after torn-tail repair replayed %d records (%v), want 4", len(records), err)
	}
}

// TestWALMidFileCorruptionQuarantined: damage before the tail is data
// loss, not crash residue — the valid prefix is recovered, the damaged
// file is quarantined for inspection, and the loss is surfaced as a
// *WALError.
func TestWALMidFileCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []string{"j1-aaaaaaaa", "j2-bbbbbbbb", "j3-cccccccc", "j4-dddddddd"} {
		if err := w.append(walSubmitRecord(job)); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	path := filepath.Join(dir, walName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	line2 := []byte(lines[1])
	line2[len(line2)/2] ^= 0x40
	lines[1] = string(line2)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	w2, records, err := openWAL(dir, nil)
	var walErr *WALError
	if !errors.As(err, &walErr) {
		t.Fatalf("mid-file damage returned %v, want *WALError", err)
	}
	if walErr.Line != 2 {
		t.Errorf("damage reported at line %d, want 2", walErr.Line)
	}
	if w2 == nil {
		t.Fatal("journal unusable after quarantine")
	}
	defer w2.close()
	if len(records) != 1 || records[0].Job != "j1-aaaaaaaa" {
		t.Fatalf("recovered %d records, want just the valid prefix", len(records))
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("damaged journal not quarantined: %v", err)
	}
	if err := w2.append(walSubmitRecord("j5-eeeeeeee")); err != nil {
		t.Fatal(err)
	}
	_, records, err = openWAL(dir, nil)
	if err != nil || len(records) != 2 {
		t.Fatalf("rewritten journal replayed %d records (%v), want 2", len(records), err)
	}
}

// TestWALAppendChaos: the fault-injection hooks on append — an
// injected error surfaces as ErrInjected; an injected corruption is
// caught by the checksum on the next replay and dropped as a torn
// tail (it is the final line).
func TestWALAppendChaos(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, NewChaos(
		ChaosRule{Point: "wal.append", Visit: 2, Action: ActionError},
		ChaosRule{Point: "wal.append", Visit: 3, Action: ActionCorrupt},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walSubmitRecord("j1-aaaaaaaa")); err != nil {
		t.Fatal(err)
	}
	if err := w.append(walSubmitRecord("j2-bbbbbbbb")); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected append error = %v, want ErrInjected", err)
	}
	if err := w.append(walSubmitRecord("j3-cccccccc")); err != nil {
		t.Fatal(err) // corrupted on disk, but the write itself succeeds
	}
	w.close()
	_, records, err := openWAL(dir, nil)
	if err != nil {
		t.Fatalf("corrupted tail surfaced an error: %v", err)
	}
	if len(records) != 1 || records[0].Job != "j1-aaaaaaaa" {
		t.Fatalf("replayed %d records, want only the intact first", len(records))
	}
}

// TestReplayJobs: the journal fold reconstructs per-job state in
// submission order.
func TestReplayJobs(t *testing.T) {
	records := []walRecord{
		walSubmitRecord("j1-aaaaaaaa"),
		walSubmitRecord("j2-bbbbbbbb"),
		{Type: walStart, Job: "j1-aaaaaaaa"},
		{Type: walStart, Job: "j9-nosubmit"}, // no submit record: ignored
		walSubmitRecord("j3-cccccccc"),
		{Type: walCheckpoint, Job: "j1-aaaaaaaa", Cycle: 40_000},
		{Type: walCheckpoint, Job: "j1-aaaaaaaa", Cycle: 80_000},
		{Type: walComplete, Job: "j2-bbbbbbbb", Status: StatusFailed, Error: "boom"},
		walSubmitRecord("j1-aaaaaaaa"), // duplicate submit: ignored
	}
	replays := replayJobs(records)
	if len(replays) != 3 {
		t.Fatalf("folded %d jobs, want 3", len(replays))
	}
	j1, j2, j3 := replays[0], replays[1], replays[2]
	if j1.submit.Job != "j1-aaaaaaaa" || !j1.started || !j1.hasCkpt || j1.done {
		t.Errorf("j1 = %+v, want started with checkpoint, not done", j1)
	}
	if j1.checkpoint.Cycle != 80_000 {
		t.Errorf("j1 kept checkpoint at cycle %d, want the latest (80000)", j1.checkpoint.Cycle)
	}
	if !j2.done || j2.complete.Status != StatusFailed || j2.complete.Error != "boom" {
		t.Errorf("j2 = %+v, want failed with error", j2)
	}
	if j3.started || j3.hasCkpt || j3.done {
		t.Errorf("j3 = %+v, want still queued", j3)
	}
}

func TestParseJobSeq(t *testing.T) {
	cases := []struct {
		id   string
		want int64
	}{
		{"j1-deadbeef", 1},
		{"j42-cafecafe", 42},
		{"j7", 7},
		{"x7-deadbeef", 0},
		{"j-deadbeef", 0},
		{"jx-deadbeef", 0},
		{"", 0},
	}
	for _, c := range cases {
		if got := parseJobSeq(c.id); got != c.want {
			t.Errorf("parseJobSeq(%q) = %d, want %d", c.id, got, c.want)
		}
	}
}
