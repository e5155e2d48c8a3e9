package policy

import (
	"math"
	"testing"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
)

// cand builds a candidate with the given shape.
func cand(id uint64, thread int, kind dram.CommandKind, bank int, arrival int64) memctrl.Candidate {
	return memctrl.Candidate{
		Req:     &memctrl.Request{ID: id, Thread: thread, Arrival: arrival, Loc: dram.Location{Bank: bank}},
		Cmd:     dram.Command{Kind: kind, Bank: bank},
		Channel: 0,
	}
}

// bankView is a memctrl.View whose OlderRowWaiting answers from the
// scripted waiting requests of the next OnSchedule.
type bankView struct {
	memctrl.View
	waiting []memctrl.Candidate
}

func (v *bankView) OlderRowWaiting(ch, bank int, id uint64) bool {
	for i := range v.waiting {
		c := &v.waiting[i]
		if c.Channel == ch && c.Cmd.Bank == bank && !c.IsColumn() && c.Req.ID < id {
			return true
		}
	}
	return false
}

func TestFRFCFSOrdering(t *testing.T) {
	p := NewFRFCFS()
	colYoung := cand(10, 0, dram.CmdRead, 0, 100)
	rowOld := cand(1, 1, dram.CmdPrecharge, 0, 0)
	if !p.Less(&colYoung, &rowOld) {
		t.Error("FR-FCFS must prefer a younger column access over an older row access")
	}
	colOld := cand(2, 1, dram.CmdWrite, 1, 5)
	if !p.Less(&colOld, &colYoung) {
		t.Error("among column accesses, older first")
	}
	rowYoung := cand(3, 0, dram.CmdActivate, 2, 7)
	if p.Less(&rowYoung, &rowOld) || !p.Less(&rowOld, &rowYoung) {
		t.Error("among row accesses, older first")
	}
}

func TestFCFSIgnoresRowState(t *testing.T) {
	p := NewFCFS()
	colYoung := cand(10, 0, dram.CmdRead, 0, 100)
	rowOld := cand(1, 1, dram.CmdPrecharge, 0, 0)
	if p.Less(&colYoung, &rowOld) {
		t.Error("FCFS must not prefer the younger column access")
	}
	if !p.Less(&rowOld, &colYoung) {
		t.Error("FCFS must prefer the older request")
	}
}

func TestCapDegradesToFCFS(t *testing.T) {
	v := &bankView{}
	p := NewFRFCFSCap(v, 2, 1, 8)
	if p.Name() != "FRFCFS+Cap" {
		t.Errorf("name = %q", p.Name())
	}
	old := cand(1, 0, dram.CmdPrecharge, 3, 0) // older row access, bank 3
	ready := []memctrl.Candidate{old}

	// Below the cap, younger column accesses win.
	for i := uint64(0); i < 2; i++ {
		young := cand(10+i, 1, dram.CmdRead, 3, 100)
		if !p.Less(&young, &old) {
			t.Fatalf("bypass %d should still be allowed", i)
		}
		v.waiting = append(ready, young)
		p.OnSchedule(0, &young)
	}
	// Cap reached: FCFS applies in bank 3 — the old row access wins.
	young := cand(20, 1, dram.CmdRead, 3, 100)
	if p.Less(&young, &old) {
		t.Error("column access must lose after the cap is reached")
	}
	// Other banks are unaffected.
	youngOther := cand(21, 1, dram.CmdRead, 4, 100)
	oldOther := cand(2, 0, dram.CmdActivate, 4, 0)
	if !p.Less(&youngOther, &oldOther) {
		t.Error("cap in bank 3 must not affect bank 4")
	}
	// Servicing a row access resets the bank's budget.
	v.waiting = ready
	p.OnSchedule(0, &old)
	young2 := cand(22, 1, dram.CmdRead, 3, 100)
	if !p.Less(&young2, &old) {
		t.Error("budget should reset after a row access is serviced")
	}
}

func TestCapDefaultValue(t *testing.T) {
	v := &bankView{}
	p := NewFRFCFSCap(v, 0, 1, 8)
	old := cand(1, 0, dram.CmdPrecharge, 0, 0)
	for i := uint64(0); i < DefaultCap; i++ {
		young := cand(10+i, 1, dram.CmdRead, 0, 50)
		if !p.Less(&young, &old) {
			t.Fatalf("bypass %d refused below default cap", i)
		}
		v.waiting = []memctrl.Candidate{old, young}
		p.OnSchedule(0, &young)
	}
	young := cand(30, 1, dram.CmdRead, 0, 50)
	if p.Less(&young, &old) {
		t.Error("default cap of 4 not enforced")
	}
}

func TestNFQVirtualFinishTimeOrdering(t *testing.T) {
	tm := dram.DefaultTiming()
	p := NewNFQ(&bankView{}, 2, 1, 8, tm)
	p.BeginCycle(0)

	// Service several requests of thread 0 in bank 0: its VFT grows
	// by latency x numThreads per request.
	for i := uint64(0); i < 5; i++ {
		c := cand(i+1, 0, dram.CmdRead, 0, int64(i)*10)
		c.Req.FirstScheduledOutcome = dram.RowHit
		p.OnSchedule(int64(i)*10, &c)
	}
	// Thread 1 arrives late with a small arrival time vs thread 0's
	// inflated VFT: thread 1 must win.
	a := cand(100, 0, dram.CmdRead, 0, 500)
	b := cand(101, 1, dram.CmdRead, 0, 500)
	if p.Less(&a, &b) {
		t.Error("thread with inflated VFT must lose to a fresh thread (idleness dynamics)")
	}
	if !p.Less(&b, &a) {
		t.Error("fresh thread should win")
	}
}

func TestNFQIdlenessProblem(t *testing.T) {
	// The scenario of the paper's Figure 3: thread 0 runs alone for a
	// long time (accruing virtual time at N x wall clock), thread 1
	// wakes up and captures the bank.
	tm := dram.DefaultTiming()
	p := NewNFQ(&bankView{}, 2, 1, 8, tm)
	now := int64(0)
	for i := uint64(0); i < 50; i++ {
		c := cand(i+1, 0, dram.CmdRead, 0, now)
		c.Req.FirstScheduledOutcome = dram.RowHit
		p.BeginCycle(now)
		p.OnSchedule(now, &c)
		now += 100
	}
	// Thread 1's burst arrives at wall clock `now`.
	burst := cand(1000, 1, dram.CmdRead, 0, now)
	cont := cand(1001, 0, dram.CmdRead, 0, now)
	p.BeginCycle(now)
	if !p.Less(&burst, &cont) {
		t.Error("bursty newcomer should be prioritized over the continuous thread — the idleness problem")
	}
}

func TestNFQSharesScaleCharges(t *testing.T) {
	tm := dram.DefaultTiming()
	pEq := NewNFQ(&bankView{}, 2, 1, 8, tm)
	pWt := NewNFQ(&bankView{}, 2, 1, 8, tm)
	if err := pWt.SetShares([]float64{1, 9}); err != nil { // thread 1 gets 90% of bandwidth
		t.Fatal(err)
	}

	for _, p := range []*NFQ{pEq, pWt} {
		c := cand(1, 1, dram.CmdRead, 0, 0)
		c.Req.FirstScheduledOutcome = dram.RowHit
		p.BeginCycle(0)
		p.OnSchedule(0, &c)
	}
	// After one identical request, the weighted thread's VFT must be
	// smaller (charged 1/0.9 instead of 1/0.5 of latency).
	aEq := cand(2, 1, dram.CmdRead, 0, 0)
	aWt := cand(3, 1, dram.CmdRead, 0, 0)
	if pEq.virtualStart(&aEq) <= pWt.virtualStart(&aWt) {
		t.Error("higher share should accrue virtual time more slowly")
	}
}

func TestNFQSetSharesValidation(t *testing.T) {
	p := NewNFQ(&bankView{}, 2, 1, 8, dram.DefaultTiming())
	for _, bad := range [][]float64{
		{1},                        // length mismatch
		{1, 0},                     // non-positive weight
		{1, -3},                    // negative weight
		{1, math.NaN()},            // NaN weight
		{1, math.Inf(1)},           // infinite weight
		{math.Inf(1), math.Inf(1)}, // all infinite
	} {
		if err := p.SetShares(bad); err == nil {
			t.Errorf("SetShares(%v) should return an error", bad)
		}
	}
	// A failed call must leave the previous (equal) shares untouched.
	if err := p.SetShares([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestNFQPriorityInversionPrevention(t *testing.T) {
	tm := dram.DefaultTiming()
	v := &bankView{}
	p := NewNFQ(v, 2, 1, 8, tm)
	old := cand(1, 0, dram.CmdPrecharge, 0, 0)
	young := cand(2, 1, dram.CmdRead, 0, 10)
	young.Req.FirstScheduledOutcome = dram.RowHit

	p.BeginCycle(0)
	if !p.Less(&young, &old) {
		t.Fatal("column access should win initially (first-ready)")
	}
	// Scheduling the young column access while the older row access
	// waits starts the inversion timer.
	v.waiting = []memctrl.Candidate{old, young}
	p.OnSchedule(0, &young)
	p.BeginCycle(tm.RAS - 1)
	if !p.Less(&young, &old) {
		t.Error("inversion should still be allowed before tRAS")
	}
	p.BeginCycle(tm.RAS + 1)
	if p.Less(&young, &old) {
		t.Error("after tRAS of bypassing, the row access must win")
	}
	// Servicing the row access clears the timer.
	v.waiting = []memctrl.Candidate{old}
	p.OnSchedule(tm.RAS+1, &old)
	p.BeginCycle(tm.RAS + 2)
	young2 := cand(3, 1, dram.CmdRead, 0, 10)
	if !p.Less(&young2, &old) {
		t.Error("timer should reset after the row access is serviced")
	}
}

// TestNFQOrderEpochTracksInversionExpiry: every change to what NFQ's
// Less answers bumps its order epoch — a charged virtual finish time,
// an inversion timer started or cleared, an expiry falling due — and
// the pending expiry is its policy event, recomputed by RestoreState.
func TestNFQOrderEpochTracksInversionExpiry(t *testing.T) {
	tm := dram.DefaultTiming()
	v := &bankView{}
	p := NewNFQ(v, 2, 1, 8, tm)
	old := cand(1, 0, dram.CmdPrecharge, 0, 0)
	young := cand(2, 1, dram.CmdRead, 0, 10)
	young.Req.FirstScheduledOutcome = dram.RowHit

	p.BeginCycle(0)
	if at := p.NextPolicyEvent(0); at != dram.Horizon {
		t.Errorf("policy event %d with no inversion timer running, want none", at)
	}
	ep := p.OrderEpoch()
	v.waiting = []memctrl.Candidate{old, young}
	p.OnSchedule(0, &young)
	if p.OrderEpoch() == ep {
		t.Error("charging a VFT and starting a timer left the epoch unchanged")
	}
	if at := p.NextPolicyEvent(0); at != tm.RAS {
		t.Errorf("policy event %d, want the expiry at tRAS = %d", at, tm.RAS)
	}
	state, err := p.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewNFQ(&bankView{}, 2, 1, 8, tm)
	if err := restored.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if at := restored.NextPolicyEvent(0); at != tm.RAS {
		t.Errorf("restored policy event %d, want the expiry at tRAS = %d", at, tm.RAS)
	}

	ep = p.OrderEpoch()
	p.BeginCycle(tm.RAS - 1)
	if p.OrderEpoch() != ep {
		t.Error("epoch bumped before the expiry fell due")
	}
	p.BeginCycle(tm.RAS)
	if p.OrderEpoch() == ep {
		t.Error("the expiry fell due without an epoch bump")
	}
	if at := p.NextPolicyEvent(tm.RAS); at != dram.Horizon {
		t.Errorf("policy event %d after the only expiry, want none", at)
	}
	ep = p.OrderEpoch()
	v.waiting = []memctrl.Candidate{old}
	p.OnSchedule(tm.RAS, &old)
	if p.OrderEpoch() == ep {
		t.Error("clearing the inversion timer left the epoch unchanged")
	}
}

// TestPARBSOrderEpoch: a formation bumps PAR-BS's order epoch exactly
// when it changes what Less reads — the marks or the ranks — and
// unmarking a request whose column access issued does not, since the
// request leaves its queue with that access.
func TestPARBSOrderEpoch(t *testing.T) {
	v := &readsView{threads: 2}
	p := NewPARBS(v, 1, 5)
	identity := func() bool { return p.rank[0][0] == 0 && p.rank[0][1] == 1 }

	ep := p.OrderEpoch()
	p.BeginCycle(0)
	if p.OrderEpoch() == ep || !identity() {
		t.Errorf("the first empty formation set ranks %v (epoch %d -> %d), want identity ranks and a bump",
			p.rank[0], ep, p.OrderEpoch())
	}
	ep = p.OrderEpoch()
	p.BeginCycle(10)
	if p.OrderEpoch() != ep {
		t.Error("re-forming an empty batch with identity ranks bumped the epoch")
	}

	// Marks alone: thread 1's read leaves the ranks at identity.
	v.reads = reqsOf([]memctrl.Candidate{cand(1, 1, dram.CmdRead, 0, 20)})
	p.BeginCycle(20)
	if p.OrderEpoch() == ep || !identity() {
		t.Errorf("a formation that marked a read: ranks %v, epoch %d -> %d, want identity and a bump",
			p.rank[0], ep, p.OrderEpoch())
	}
	drained := cand(1, 1, dram.CmdRead, 0, 20)
	p.OnSchedule(30, &drained)

	// Marks and ranks: thread 0 is heavier, so thread 1 ranks first.
	var batch []memctrl.Candidate
	for i := uint64(2); i <= 4; i++ {
		batch = append(batch, cand(i, 0, dram.CmdRead, 0, int64(i)))
	}
	batch = append(batch, cand(5, 1, dram.CmdRead, 1, 40))
	v.reads = reqsOf(batch)
	ep = p.OrderEpoch()
	p.BeginCycle(40)
	if p.OrderEpoch() == ep || p.remaining[0] != 4 || p.rank[0][1] != 0 {
		t.Fatalf("a ranked formation: remaining %d, ranks %v, epoch %d -> %d",
			p.remaining[0], p.rank[0], ep, p.OrderEpoch())
	}

	// Unmarking: an activate leaves the batch alone, and each column
	// access drains one mark, neither touching the epoch.
	ep = p.OrderEpoch()
	act := cand(2, 0, dram.CmdActivate, 0, 2)
	p.OnSchedule(50, &act)
	for i := range batch {
		p.OnSchedule(60, &batch[i])
	}
	if p.remaining[0] != 0 || p.OrderEpoch() != ep {
		t.Errorf("after the batch's column accesses: remaining %d, epoch %d -> %d, want 0 and no bump",
			p.remaining[0], ep, p.OrderEpoch())
	}

	// An empty formation after a ranked batch resets the ranks.
	v.reads = nil
	p.BeginCycle(70)
	if p.OrderEpoch() == ep || !identity() {
		t.Errorf("the empty formation after a ranked batch: ranks %v, epoch %d -> %d, want identity and a bump",
			p.rank[0], ep, p.OrderEpoch())
	}
}

// TestRestoreStateIgnoresOrderEpochs: order epochs are cache keys, not
// state, so a checkpoint written while TCM and FR-FCFS+Cap still saved
// theirs restores to the same registers.
func TestRestoreStateIgnoresOrderEpochs(t *testing.T) {
	tcm := NewTCM(2)
	tcm.served[1] = 3
	tcm.recluster()
	capped := NewFRFCFSCap(&bankView{}, 4, 1, 8)
	capped.counts[0][3] = 2
	for _, tc := range []struct {
		saved, fresh memctrl.StatefulPolicy
		field        string
	}{
		{tcm, NewTCM(2), "orderEpoch"},
		{capped, NewFRFCFSCap(&bankView{}, 4, 1, 8), "epoch"},
	} {
		state, err := tc.saved.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		old := append([]byte(`{"`+tc.field+`":41,`), state[1:]...)
		if err := tc.fresh.RestoreState(old); err != nil {
			t.Fatalf("state with %q: %v", tc.field, err)
		}
		if got, _ := tc.fresh.SaveState(); string(got) != string(state) {
			t.Errorf("state with %q restored to %s, want %s", tc.field, got, state)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	tm := dram.DefaultTiming()
	for _, tc := range []struct {
		p    memctrl.Policy
		want string
	}{
		{NewFRFCFS(), "FR-FCFS"},
		{NewFCFS(), "FCFS"},
		{NewFRFCFSCap(&bankView{}, 4, 1, 8), "FRFCFS+Cap"},
		{NewNFQ(&bankView{}, 2, 1, 8, tm), "NFQ"},
	} {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
		tc.p.BeginCycle(0) // must not panic
	}
}
