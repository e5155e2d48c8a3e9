package policy

import "stfm/internal/memctrl"

// FCFS is plain first-come-first-serve over ready DRAM commands,
// disregarding row-buffer state (Section 4). It removes the
// column-first unfairness of FR-FCFS but still implicitly prioritizes
// memory-intensive threads, and sacrifices row-buffer locality, hence
// DRAM throughput.
type FCFS struct{}

// NewFCFS returns the FCFS policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements memctrl.Policy.
func (*FCFS) Name() string { return "FCFS" }

// BeginCycle implements memctrl.Policy.
func (*FCFS) BeginCycle(int64) {}

// Less implements memctrl.Policy: strictly oldest-first.
func (*FCFS) Less(a, b *memctrl.Candidate) bool { return a.Req.Older(b.Req) }

// OnSchedule implements memctrl.Policy; it reads nothing.
func (*FCFS) OnSchedule(int64, *memctrl.Candidate) {}

// OrderEpoch implements memctrl.Policy: the comparator is
// stateless, so the ordering never changes.
func (*FCFS) OrderEpoch() uint64 { return 0 }

var _ memctrl.Policy = (*FCFS)(nil)
