package policy

import (
	"testing"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
)

// Candidate comparators must be strict orders: irreflexive and
// asymmetric for every pair, or per-bank arbitration silently becomes
// priority-dependent on scan order. This exercises every policy
// (including NFQ with accrued virtual-time state) over a generated
// candidate population.
func TestPolicyOrderingProperties(t *testing.T) {
	tm := dram.DefaultTiming()
	view := &bankView{}
	policies := []memctrl.Policy{
		NewFRFCFS(),
		NewFCFS(),
		NewFRFCFSCap(view, 4, 1, 8),
		NewNFQ(view, 4, 1, 8, tm),
		NewPARBS(&readsView{threads: 4}, 1, 5),
	}

	// Build a diverse candidate population.
	kinds := []dram.CommandKind{dram.CmdRead, dram.CmdWrite, dram.CmdActivate, dram.CmdPrecharge}
	var cands []memctrl.Candidate
	id := uint64(1)
	for thread := 0; thread < 4; thread++ {
		for bank := 0; bank < 4; bank++ {
			for _, k := range kinds {
				cands = append(cands, memctrl.Candidate{
					Req:     &memctrl.Request{ID: id, Thread: thread, Arrival: int64(id * 7 % 100), Loc: dram.Location{Bank: bank}},
					Cmd:     dram.Command{Kind: k, Bank: bank},
					Channel: 0,
				})
				id++
			}
		}
	}

	for _, p := range policies {
		p.BeginCycle(1000)
		if pb, ok := p.(*PARBS); ok {
			pb.form(0, reqsOf(cands))
		}
		// Accrue some NFQ virtual time so the comparator sees
		// non-trivial state.
		if nfq, ok := p.(*NFQ); ok {
			warm := cands[0]
			warm.Req.FirstScheduledOutcome = dram.RowHit
			view.waiting = cands
			nfq.OnSchedule(1000, &warm)
		}
		for i := range cands {
			a := &cands[i]
			if p.Less(a, a) {
				t.Errorf("%s: Less must be irreflexive", p.Name())
			}
			for j := range cands {
				if i == j {
					continue
				}
				b := &cands[j]
				if p.Less(a, b) && p.Less(b, a) {
					t.Errorf("%s: Less not asymmetric for %v/%v vs %v/%v",
						p.Name(), a.Req.ID, a.Cmd.Kind, b.Req.ID, b.Cmd.Kind)
				}
			}
		}
	}
}

// TestPolicySelectionIsScanOrderIndependent: picking the maximum under
// Less must give the same winner regardless of candidate order.
func TestPolicySelectionIsScanOrderIndependent(t *testing.T) {
	tm := dram.DefaultTiming()
	p := NewNFQ(&bankView{}, 2, 1, 8, tm)
	var cands []memctrl.Candidate
	for i := uint64(1); i <= 12; i++ {
		cands = append(cands, cand(i, int(i%2), []dram.CommandKind{dram.CmdRead, dram.CmdPrecharge}[i%2], int(i%4), int64(i*13%50)))
	}
	p.BeginCycle(0)
	best := func(order []memctrl.Candidate) uint64 {
		b := &order[0]
		for i := 1; i < len(order); i++ {
			if p.Less(&order[i], b) {
				b = &order[i]
			}
		}
		return b.Req.ID
	}
	forward := best(cands)
	reversed := make([]memctrl.Candidate, len(cands))
	for i, c := range cands {
		reversed[len(cands)-1-i] = c
	}
	if got := best(reversed); got != forward {
		t.Errorf("winner depends on scan order: %d vs %d", forward, got)
	}
}
