// Package policy implements the non-STFM DRAM scheduling policies the
// paper evaluates: FR-FCFS (the throughput-oriented baseline of
// Section 2.4), plain FCFS, FR-FCFS with a column-over-row reordering
// cap (the new comparison algorithm of Section 4), and network fair
// queueing (NFQ, Nesbit et al.'s FQ-VFTF scheme with the tRAS
// priority-inversion cap, as configured in Section 6.3).
//
// STFM itself lives in internal/core, since it is the paper's primary
// contribution.
package policy

import "stfm/internal/memctrl"

// FRFCFS is the first-ready first-come-first-serve policy: ready
// column accesses over ready row accesses, then older requests over
// younger ones (Section 2.4). It maximizes row-buffer hit rate and is
// thread-unaware.
type FRFCFS struct{}

// NewFRFCFS returns the FR-FCFS policy.
func NewFRFCFS() *FRFCFS { return &FRFCFS{} }

// Name implements memctrl.Policy.
func (*FRFCFS) Name() string { return "FR-FCFS" }

// BeginCycle implements memctrl.Policy.
func (*FRFCFS) BeginCycle(int64) {}

// Less implements memctrl.Policy: column-first, then oldest-first.
func (*FRFCFS) Less(a, b *memctrl.Candidate) bool {
	if a.IsColumn() != b.IsColumn() {
		return a.IsColumn()
	}
	return a.Req.Older(b.Req)
}

// OnSchedule implements memctrl.Policy; it reads nothing.
func (*FRFCFS) OnSchedule(int64, *memctrl.Candidate) {}

// OrderEpoch implements memctrl.Policy: the comparator is
// stateless, so the ordering never changes.
func (*FRFCFS) OrderEpoch() uint64 { return 0 }

var _ memctrl.Policy = (*FRFCFS)(nil)
