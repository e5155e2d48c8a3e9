package core

import (
	"math"
	"testing"
	"testing/quick"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
)

// fakeView is a scripted memctrl.View. Its mask queries answer from
// waiting, the channel's scripted waiting requests, every one of them
// ready unless its request ID is in blocked.
type fakeView struct {
	threads   int
	banks     []int
	requests  []int
	inService []int
	waiting   []memctrl.Candidate
	blocked   map[uint64]bool
}

func (v *fakeView) NumThreads() int          { return v.threads }
func (v *fakeView) QueuedBanks(t int) int    { return v.banks[t] }
func (v *fakeView) QueuedRequests(t int) int { return v.requests[t] }
func (v *fakeView) InService(t int) int      { return v.inService[t] }
func (v *fakeView) AppendQueuedReads(dst []*memctrl.Request, _ int) []*memctrl.Request {
	return dst
}

func (v *fakeView) BankWaiters(_ int64, ch, bank int) (waiting, ready uint64) {
	for _, c := range v.waiting {
		if c.Channel == ch && c.Cmd.Bank == bank {
			waiting |= 1 << uint(c.Req.Thread)
			if !v.blocked[c.Req.ID] {
				ready |= 1 << uint(c.Req.Thread)
			}
		}
	}
	return waiting, ready
}

func (v *fakeView) ReadyColumnWaiters(_ int64, ch, exceptBank int) uint64 {
	var ready uint64
	for _, c := range v.waiting {
		if c.Channel == ch && c.Cmd.Bank != exceptBank && c.IsColumn() && !v.blocked[c.Req.ID] {
			ready |= 1 << uint(c.Req.Thread)
		}
	}
	return ready
}

func (v *fakeView) OlderRowWaiting(int, int, uint64) bool { return false }

// wait scripts the channel's waiting requests for the next OnSchedule.
func (v *fakeView) wait(cands ...memctrl.Candidate) { v.waiting = cands }

func newFakeView(threads int) *fakeView {
	return &fakeView{
		threads:   threads,
		banks:     make([]int, threads),
		requests:  make([]int, threads),
		inService: make([]int, threads),
		blocked:   make(map[uint64]bool),
	}
}

type fixture struct {
	stfm    *STFM
	view    *fakeView
	tshared []int64
}

func newFixture(t *testing.T, threads int, cfg Config) *fixture {
	t.Helper()
	f := &fixture{view: newFakeView(threads), tshared: make([]int64, threads)}
	geom := dram.DefaultGeometry(1)
	s, err := NewSTFM(cfg, f.view, geom, dram.DefaultTiming(), func(i int) int64 { return f.tshared[i] })
	if err != nil {
		t.Fatal(err)
	}
	f.stfm = s
	return f
}

func TestConfigValidation(t *testing.T) {
	view := newFakeView(2)
	geom := dram.DefaultGeometry(1)
	tm := dram.DefaultTiming()
	ts := func(int) int64 { return 0 }
	cases := []struct {
		name string
		cfg  Config
		ts   func(int) int64
	}{
		{"alpha < 1", Config{Alpha: 0.5, IntervalLength: 1 << 20, Gamma: 1}, ts},
		{"zero interval", Config{Alpha: 1.1, Gamma: 1}, ts},
		{"zero gamma", Config{Alpha: 1.1, IntervalLength: 1 << 20}, ts},
		{"nil tshared", Config{Alpha: 1.1, IntervalLength: 1 << 20, Gamma: 1}, nil},
		{"bad weight count", func() Config { c := DefaultConfig(); c.Weights = []float64{1}; return c }(), ts},
		{"non-positive weight", func() Config { c := DefaultConfig(); c.Weights = []float64{1, 0}; return c }(), ts},
	}
	for _, c := range cases {
		if _, err := NewSTFM(c.cfg, view, geom, tm, c.ts); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewSTFM(DefaultConfig(), view, geom, tm, ts); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestSlowdownComputation(t *testing.T) {
	f := newFixture(t, 2, DefaultConfig())
	// Thread 0: Tshared 1000, Tinterference 500 -> S = 2.
	f.tshared[0] = 1000
	f.stfm.tinterf[0] = 500
	// Thread 1: no stall time -> S = 1.
	f.view.requests[0], f.view.requests[1] = 1, 1
	f.stfm.BeginCycle(0)
	if got := f.stfm.Slowdown(0); math.Abs(got-2) > 1e-9 {
		t.Errorf("Slowdown(0) = %v, want 2", got)
	}
	if got := f.stfm.Slowdown(1); got != 1 {
		t.Errorf("Slowdown(1) = %v, want 1", got)
	}
	if got := f.stfm.Unfairness(); math.Abs(got-2) > 1e-9 {
		t.Errorf("Unfairness = %v, want 2", got)
	}
}

func TestSlowdownClampsNegativeTalone(t *testing.T) {
	f := newFixture(t, 1, DefaultConfig())
	f.tshared[0] = 100
	f.stfm.tinterf[0] = 500 // estimate overshoot
	f.stfm.BeginCycle(0)
	s := f.stfm.Slowdown(0)
	if math.IsInf(s, 0) || math.IsNaN(s) || s < 1 {
		t.Errorf("slowdown must stay finite and >= 1, got %v", s)
	}
}

func TestWeightedSlowdowns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Weights = []float64{1, 10}
	f := newFixture(t, 2, cfg)
	f.tshared[0], f.tshared[1] = 1000, 1000
	f.stfm.tinterf[0] = 500 // S = 2 for both
	f.stfm.tinterf[1] = 500
	f.view.requests[0], f.view.requests[1] = 1, 1
	f.stfm.BeginCycle(0)
	// Weighted: S' = 1 + (S-1)*W -> thread 1 reads as 11.
	if got := f.stfm.Slowdown(1); math.Abs(got-11) > 1e-9 {
		t.Errorf("weighted slowdown = %v, want 11", got)
	}
	if got := f.stfm.Slowdown(0); math.Abs(got-2) > 1e-9 {
		t.Errorf("unit-weight slowdown = %v, want 2", got)
	}
}

func TestFixedPointQuantization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixedPointSlowdowns = true
	f := newFixture(t, 1, cfg)
	f.tshared[0] = 1000
	f.stfm.tinterf[0] = 300 // S = 1000/700 = 1.42857...
	f.stfm.BeginCycle(0)
	got := f.stfm.Slowdown(0)
	if got*16 != math.Round(got*16) {
		t.Errorf("slowdown %v not on the 4.4 fixed-point grid", got)
	}
	if math.Abs(got-1.42857) > 1.0/16 {
		t.Errorf("quantized slowdown %v too far from 1.4286", got)
	}
}

func TestQuantizeFixedPointBounds(t *testing.T) {
	if got := quantizeFixedPoint(100); got != 255.0/16 {
		t.Errorf("saturation failed: %v", got)
	}
	if got := quantizeFixedPoint(0.5); got != 1 {
		t.Errorf("floor failed: %v", got)
	}
	f := func(v float64) bool {
		v = 1 + math.Mod(math.Abs(v), 14)
		q := quantizeFixedPoint(v)
		return math.Abs(q-v) <= 1.0/32+1e-12 && q >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFairnessModeThreshold(t *testing.T) {
	f := newFixture(t, 2, DefaultConfig()) // alpha = 1.10
	f.view.requests[0], f.view.requests[1] = 1, 1
	f.tshared[0], f.tshared[1] = 1000, 1000
	f.stfm.tinterf[0] = 50 // S ~ 1.05
	f.stfm.BeginCycle(0)
	if f.stfm.fairnessMode {
		t.Error("unfairness 1.05 must not exceed alpha 1.10")
	}
	f.stfm.tinterf[0] = 200 // S = 1.25
	f.stfm.BeginCycle(10)
	if !f.stfm.fairnessMode {
		t.Error("unfairness 1.25 must trigger the fairness rule")
	}
	if f.stfm.tmax != 0 {
		t.Errorf("tmax = %d, want 0", f.stfm.tmax)
	}
}

func TestUnfairnessIgnoresThreadsWithoutRequests(t *testing.T) {
	f := newFixture(t, 3, DefaultConfig())
	f.tshared = []int64{1000, 1000, 1000}
	f.stfm.tinterf[2] = 900 // hugely slowed but has no waiting request
	f.view.requests[0], f.view.requests[1] = 1, 1
	f.stfm.BeginCycle(0)
	if f.stfm.Unfairness() != 1 {
		t.Errorf("unfairness = %v, want 1 (thread 2 has no ready request)", f.stfm.Unfairness())
	}
}

func TestLessTmaxFirstThenFRFCFS(t *testing.T) {
	f := newFixture(t, 3, DefaultConfig())
	f.view.requests = []int{1, 1, 1}
	f.tshared = []int64{1000, 1000, 1000}
	f.stfm.tinterf[1] = 600 // thread 1 is Tmax (S = 2.5)
	f.stfm.tinterf[2] = 300
	f.stfm.BeginCycle(0)
	if !f.stfm.fairnessMode {
		t.Fatal("expected fairness mode")
	}

	tmaxRow := candFor(1, dram.CmdPrecharge, 1, 100)
	otherCol := candFor(0, dram.CmdRead, 2, 5)
	if !f.stfm.Less(&tmaxRow, &otherCol) {
		t.Error("Tmax's row access must beat another thread's column access in fairness mode")
	}
	// Among non-Tmax threads, FR-FCFS rules apply.
	col2 := candFor(2, dram.CmdRead, 3, 50)
	rowNonTmax := candAt(0, dram.CmdActivate, 4, 1)
	if !f.stfm.Less(&col2, &rowNonTmax) {
		t.Error("column-first must apply among non-Tmax threads")
	}

	// Outside fairness mode it is pure FR-FCFS.
	f.stfm.tinterf[1] = 0
	f.stfm.tinterf[2] = 0
	f.stfm.BeginCycle(10)
	if f.stfm.fairnessMode {
		t.Fatal("fairness mode should be off")
	}
	if f.stfm.Less(&tmaxRow, &otherCol) {
		t.Error("without fairness mode, the column access wins")
	}
}

func candFor(thread int, kind dram.CommandKind, bank int, arrival int64) memctrl.Candidate {
	return candAt(thread, kind, bank, arrival)
}

var candID uint64

func candAt(thread int, kind dram.CommandKind, bank int, arrival int64) memctrl.Candidate {
	candID++
	return memctrl.Candidate{
		Req:     &memctrl.Request{ID: candID + uint64(arrival)<<20, Thread: thread, Arrival: arrival},
		Cmd:     dram.Command{Kind: kind, Bank: bank},
		Channel: 0,
	}
}

func TestBusInterferenceCharge(t *testing.T) {
	f := newFixture(t, 2, DefaultConfig())
	tm := dram.DefaultTiming()
	chosen := candAt(0, dram.CmdRead, 0, 0)
	victim := candAt(1, dram.CmdRead, 3, 0) // ready CAS on same channel, other bank
	f.view.requests[1] = 1
	f.view.banks[1] = 1
	f.view.wait(chosen, victim)
	f.stfm.OnSchedule(0, &chosen)
	if got := f.stfm.Interference(1); got != float64(tm.BurstCycles) {
		t.Errorf("bus interference = %v, want %d", got, tm.BurstCycles)
	}
	if f.stfm.Interference(0) != 0 {
		t.Error("the scheduled thread must not charge itself bus interference")
	}
}

func TestBankInterferenceAmortization(t *testing.T) {
	cfg := DefaultConfig() // gamma = 1, bank-count parallelism
	f := newFixture(t, 2, cfg)
	tm := dram.DefaultTiming()
	chosen := candAt(0, dram.CmdActivate, 5, 0)
	victim := candAt(1, dram.CmdPrecharge, 5, 0) // same bank
	f.view.banks[1] = 4                          // waiting in 4 banks
	f.view.wait(chosen, victim)
	f.stfm.OnSchedule(0, &chosen)
	want := float64(tm.RCD) / 4 // ACT latency / (gamma*BWP)
	if got := f.stfm.Interference(1); math.Abs(got-want) > 1e-9 {
		t.Errorf("bank interference = %v, want %v", got, want)
	}
}

func TestBankInterferenceIgnoresOtherBanks(t *testing.T) {
	f := newFixture(t, 2, DefaultConfig())
	chosen := candAt(0, dram.CmdActivate, 5, 0)
	victim := candAt(1, dram.CmdPrecharge, 6, 0) // different bank, not a CAS
	f.view.banks[1] = 1
	f.view.wait(chosen, victim)
	f.stfm.OnSchedule(0, &chosen)
	if got := f.stfm.Interference(1); got != 0 {
		t.Errorf("interference = %v, want 0 (different bank, row command)", got)
	}
}

func TestOwnThreadExtraLatency(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(t, 2, cfg)
	tm := dram.DefaultTiming()

	// First access of thread 0 to (bank 2, row 7): establishes
	// LastRowAddress; no own-thread charge (no alone history).
	first := candAt(0, dram.CmdRead, 2, 0)
	first.Req.Loc = dram.Location{Bank: 2, Row: 7}
	first.First = true
	f.view.inService[0] = 1
	f.view.wait(first)
	f.stfm.OnSchedule(0, &first)
	if f.stfm.Interference(0) != 0 {
		t.Fatalf("no own charge expected on first-ever access, got %v", f.stfm.Interference(0))
	}

	// Second access to the same row arrives as a row-conflict in the
	// shared system (another thread closed it): alone it would have
	// been a hit, so ExtraLatency = conflict - hit = tRP + tRCD.
	second := candAt(0, dram.CmdPrecharge, 2, 10)
	second.Req.Loc = dram.Location{Bank: 2, Row: 7}
	second.First = true
	second.Outcome = dram.RowConflict
	f.view.wait(second)
	f.stfm.OnSchedule(10, &second)
	want := float64(tm.RP + tm.RCD)
	if got := f.stfm.Interference(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("own-thread interference = %v, want %v", got, want)
	}
}

func TestOwnThreadNegativeExtraLatency(t *testing.T) {
	// Footnote 10: a row hit in the shared system that would have
	// been a conflict alone yields negative interference.
	f := newFixture(t, 2, DefaultConfig())
	f.view.inService[0] = 1

	a := candAt(0, dram.CmdRead, 2, 0)
	a.Req.Loc = dram.Location{Bank: 2, Row: 7}
	a.First = true
	f.view.wait(a)
	f.stfm.OnSchedule(0, &a)

	// Next access targets row 9 (conflict alone) but arrives as a hit
	// in the shared system (someone else opened row 9 — shared data).
	b := candAt(0, dram.CmdRead, 2, 10)
	b.Req.Loc = dram.Location{Bank: 2, Row: 9}
	b.First = true
	b.Outcome = dram.RowHit
	f.view.wait(b)
	f.stfm.OnSchedule(10, &b)
	if got := f.stfm.Interference(0); got >= 0 {
		t.Errorf("interference = %v, want negative (positive interference case)", got)
	}
}

func TestOwnThreadUpdateDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableOwnThreadUpdate = true
	f := newFixture(t, 2, cfg)
	f.view.inService[0] = 1
	a := candAt(0, dram.CmdRead, 2, 0)
	a.Req.Loc = dram.Location{Bank: 2, Row: 7}
	a.First = true
	f.view.wait(a)
	f.stfm.OnSchedule(0, &a)
	b := candAt(0, dram.CmdPrecharge, 2, 10)
	b.Req.Loc = dram.Location{Bank: 2, Row: 7}
	b.First = true
	b.Outcome = dram.RowConflict
	f.view.wait(b)
	f.stfm.OnSchedule(10, &b)
	if got := f.stfm.Interference(0); got != 0 {
		t.Errorf("own-thread update should be disabled, got %v", got)
	}
}

func TestNonReadyVictimNotChargedWhenSelfBlocked(t *testing.T) {
	f := newFixture(t, 2, DefaultConfig())
	// Thread 1's own command last used bank 5; its non-ready request
	// there is self-blocked and must not be charged.
	warm := candAt(1, dram.CmdRead, 5, 0)
	f.view.wait(warm)
	f.stfm.OnSchedule(0, &warm)
	base := f.stfm.Interference(1)

	chosen := candAt(0, dram.CmdActivate, 5, 5)
	victim := candAt(1, dram.CmdPrecharge, 5, 5)
	f.view.blocked[victim.Req.ID] = true
	f.view.banks[1] = 1
	f.view.wait(chosen, victim)
	f.stfm.OnSchedule(10, &chosen)
	if got := f.stfm.Interference(1); got != base {
		t.Errorf("self-blocked victim charged: %v -> %v", base, got)
	}

	// After thread 0 used the bank, thread 1's blocked request is a
	// cross-thread victim and must be charged.
	chosen2 := candAt(0, dram.CmdRead, 5, 20)
	f.view.wait(chosen2, victim)
	f.stfm.OnSchedule(20, &chosen2)
	if got := f.stfm.Interference(1); got <= base {
		t.Error("cross-thread-blocked victim must be charged")
	}
}

func TestIntervalReset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntervalLength = 1000
	f := newFixture(t, 2, cfg)
	f.tshared[0] = 500
	f.stfm.tinterf[0] = 250
	f.view.requests[0], f.view.requests[1] = 1, 1
	f.stfm.BeginCycle(0)
	if f.stfm.Slowdown(0) <= 1 {
		t.Fatal("expected slowdown before reset")
	}
	f.stfm.BeginCycle(1000) // interval boundary
	if got := f.stfm.IntervalResets(); got != 1 {
		t.Fatalf("IntervalResets = %d, want 1", got)
	}
	if got := f.stfm.Slowdown(0); got != 1 {
		t.Errorf("slowdown after reset = %v, want 1", got)
	}
	if f.stfm.Interference(0) != 0 {
		t.Error("Tinterference must reset")
	}
}

func TestFairnessModeFraction(t *testing.T) {
	f := newFixture(t, 2, DefaultConfig())
	f.view.requests[0], f.view.requests[1] = 1, 1
	f.tshared[0], f.tshared[1] = 1000, 1000
	f.stfm.tinterf[0] = 500
	f.stfm.BeginCycle(0)
	f.stfm.BeginCycle(10)
	f.stfm.tinterf[0] = 0
	f.stfm.BeginCycle(20)
	f.stfm.BeginCycle(30)
	if got := f.stfm.FairnessModeFraction(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("fairness fraction = %v, want 0.5", got)
	}
}

// TestSlowdownMonotoneInInterference is a property test: with fixed
// Tshared, higher interference never lowers the slowdown estimate.
func TestSlowdownMonotoneInInterference(t *testing.T) {
	f := newFixture(t, 1, DefaultConfig())
	f.tshared[0] = 1_000_000
	prop := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 900_000)
		b = math.Mod(math.Abs(b), 900_000)
		if a > b {
			a, b = b, a
		}
		f.stfm.tinterf[0] = a
		sa := f.stfm.computeSlowdown(0)
		f.stfm.tinterf[0] = b
		sb := f.stfm.computeSlowdown(0)
		return sb >= sa && sa >= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRestoreStateIgnoresOrderEpoch: the order epoch is a cache key, not
// state, so a checkpoint written while STFM still saved it restores to
// the same registers.
func TestRestoreStateIgnoresOrderEpoch(t *testing.T) {
	f := newFixture(t, 2, DefaultConfig())
	f.stfm.slowdowns[1] = 1.5
	f.stfm.orderKey = 1
	state, err := f.stfm.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := newFixture(t, 2, DefaultConfig()).stfm
	if err := fresh.RestoreState(append([]byte(`{"orderEpoch":41,`), state[1:]...)); err != nil {
		t.Fatal(err)
	}
	if got, _ := fresh.SaveState(); string(got) != string(state) {
		t.Errorf("restored to %s, want %s", got, state)
	}
}
