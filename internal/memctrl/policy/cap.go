package policy

import "stfm/internal/memctrl"

// DefaultCap is the paper's empirically chosen cap of 4 younger column
// accesses over an older row access (Section 6.3).
const DefaultCap = 4

// FRFCFSCap is FR-FCFS with a cap on column-over-row reordering, the
// new comparison algorithm the paper introduces in Section 4: at most
// Cap younger column (row-hit) accesses may be serviced before an
// older row access to the same bank; once the cap is reached the bank
// falls back to FCFS ordering until a row access is serviced there.
type FRFCFSCap struct {
	cap    int
	counts [][]int // [channel][bank] column accesses serviced past an older row access
	// epoch counts changes to counts — the only policy state Less reads
	// — licensing the controller's per-bank winner memo (OrderingPolicy).
	epoch uint64
}

// NewFRFCFSCap creates the policy for a controller with the given
// channel/bank geometry. cap <= 0 selects DefaultCap.
func NewFRFCFSCap(cap, channels, banksPerChannel int) *FRFCFSCap {
	if cap <= 0 {
		cap = DefaultCap
	}
	counts := make([][]int, channels)
	for i := range counts {
		counts[i] = make([]int, banksPerChannel)
	}
	return &FRFCFSCap{cap: cap, counts: counts}
}

// Name implements memctrl.Policy.
func (*FRFCFSCap) Name() string { return "FRFCFS+Cap" }

// BeginCycle implements memctrl.Policy.
func (*FRFCFSCap) BeginCycle(int64) {}

// Less implements memctrl.Policy. A column access keeps its
// column-first privilege only while its bank's reorder budget remains;
// a capped bank degrades to pure FCFS, which lets the older row access
// win.
func (p *FRFCFSCap) Less(a, b *memctrl.Candidate) bool {
	aCol := a.IsColumn() && !p.capped(a)
	bCol := b.IsColumn() && !p.capped(b)
	if aCol != bCol {
		return aCol
	}
	return a.Req.Older(b.Req)
}

func (p *FRFCFSCap) capped(c *memctrl.Candidate) bool {
	return p.counts[c.Channel][c.Cmd.Bank] >= p.cap
}

// OnSchedule implements memctrl.Policy: it counts each column access
// serviced while a strictly older request was waiting on a row access
// to the same bank, and resets the bank's budget whenever a row access
// is serviced there.
func (p *FRFCFSCap) OnSchedule(_ int64, chosen *memctrl.Candidate, ready []memctrl.Candidate) {
	bank := chosen.Cmd.Bank
	if !chosen.IsColumn() {
		if p.counts[chosen.Channel][bank] != 0 {
			p.counts[chosen.Channel][bank] = 0
			p.epoch++
		}
		return
	}
	for i := range ready {
		r := &ready[i]
		if r.Channel == chosen.Channel && r.Cmd.Bank == bank && !r.IsColumn() && r.Req.Older(chosen.Req) {
			p.counts[chosen.Channel][bank]++
			p.epoch++
			return
		}
	}
}

// OrderEpoch implements memctrl.OrderingPolicy: bumped whenever a bank's
// reorder budget changes, the only mutable input to Less.
func (p *FRFCFSCap) OrderEpoch() uint64 { return p.epoch }

var (
	_ memctrl.Policy         = (*FRFCFSCap)(nil)
	_ memctrl.OrderingPolicy = (*FRFCFSCap)(nil)
)
