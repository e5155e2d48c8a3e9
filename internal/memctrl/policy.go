package memctrl

import "stfm/internal/dram"

// Candidate is a request presented to the policy with the next DRAM
// command it needs given the current row-buffer state of its bank.
// Candidates are built for every waiting request; DRAM timing
// readiness is enforced by the controller when the selected command is
// issued, not during prioritization (the paper's per-bank schedulers
// arbitrate requests, then issue the winner's commands as they become
// ready).
type Candidate struct {
	// Req is the queued request this candidate would service.
	Req *Request
	// Cmd is the next command the request needs given the current
	// row-buffer state of its bank.
	Cmd dram.Command
	// Outcome is the request's current row-buffer classification
	// (hit/closed/conflict), implied by Cmd but precomputed for
	// policies.
	Outcome dram.RowBufferOutcome
	// Channel is the DRAM channel the request targets.
	Channel int
	// First is set when no command has been issued for the request
	// yet, i.e. scheduling this candidate is the request's first
	// service event (STFM's own-thread interference update and the
	// row-buffer outcome statistics key off it).
	First bool
	// Ready reports whether Cmd could issue this DRAM cycle without
	// violating timing or bus constraints — the paper's definition of
	// a ready command (footnote 4). STFM charges interference only to
	// threads with ready commands ("these ready requests could have
	// been scheduled if the thread had run by itself").
	Ready bool
}

// IsColumn reports whether the candidate's next command is a ready
// column access — the class FR-FCFS's column-first rule prioritizes.
func (c *Candidate) IsColumn() bool { return c.Cmd.Kind.IsColumn() }

// Policy decides which ready DRAM command the controller issues each
// DRAM cycle. Implementations are the five schedulers the paper
// evaluates. The controller calls BeginCycle once per DRAM cycle, then
// for each channel selects the maximum candidate under Less and calls
// OnSchedule with the winner and the full ready set.
type Policy interface {
	// Name returns the scheduler's short name (e.g. "FR-FCFS").
	Name() string
	// BeginCycle is invoked once per DRAM cycle before any selection,
	// letting stateful policies (STFM's unfairness check, NFQ's
	// bookkeeping) update per-cycle state.
	BeginCycle(now int64)
	// Less reports whether candidate a has strictly higher priority
	// than candidate b. Both candidates are ready commands on the
	// same channel.
	Less(a, b *Candidate) bool
	// OnSchedule is invoked when the controller issues chosen's
	// command. waiting is the full candidate set for the channel this
	// cycle (chosen included) — policies that account for inter-thread
	// interference (STFM) or virtual time (NFQ) use it to see which
	// threads had waiting requests that were delayed.
	OnSchedule(now int64, chosen *Candidate, waiting []Candidate)
}

// BatchPolicy is an optional extension interface: policies that need
// the full per-channel waiting set each cycle (batch formation in
// PAR-BS-style schedulers) implement it, and the controller calls
// PrepareCycle with the channel's candidates before arbitration.
type BatchPolicy interface {
	// PrepareCycle observes (and may re-batch over) the channel's full
	// candidate set before this cycle's arbitration.
	PrepareCycle(channel int, now int64, waiting []Candidate)
}

// OrderingPolicy is an optional extension interface that licenses the
// controller's per-bank winner memoization. OrderEpoch returns a
// counter that the policy bumps whenever internal state consulted by
// Less changes — i.e. whenever Less(a, b) could return a different
// answer than it did on an earlier cycle for the same two candidates.
// While the epoch (together with the bank's state epoch and the bank
// queue's membership version) is unchanged, the controller reuses the
// previously selected per-bank winner instead of re-running the Less
// tournament over the bank's queue.
//
// The contract covers only policy-internal state: candidate-derived
// inputs (command kind, row-buffer outcome, arrival ID) are tracked by
// the controller's own epochs. Policies whose ordering depends on the
// current cycle itself (NFQ's inversion-expiry timeout) must not
// implement the interface — there is no sound epoch for wall-clock
// time. Stateless orders (FR-FCFS, FCFS) return a constant.
type OrderingPolicy interface {
	// OrderEpoch returns the current ordering-state counter; see the
	// interface comment for the exact bumping contract.
	OrderEpoch() uint64
}

// EventPolicy is an optional extension interface for policies whose
// BeginCycle does time-driven work of its own — per-cycle fairness
// accounting (STFM), quantum-boundary reclustering (TCM) — rather than
// reacting only to enqueue/issue/complete events. NextPolicyEvent
// returns the next CPU cycle at which the policy must observe a DRAM
// clock edge; the controller folds it (rounded up to an edge) into the
// horizon it reports, so event-driven stepping never skips an edge the
// policy needed. It is called after BeginCycle on a ticked edge, so
// implementations report from up-to-date state. Policies that react
// purely to scheduling events need not implement it.
type EventPolicy interface {
	// NextPolicyEvent returns the next CPU cycle at which the policy
	// must observe a DRAM clock edge; see the interface comment.
	NextPolicyEvent(now int64) int64
}

// View is the read-only controller interface given to policies that
// need global request-buffer state (STFM's bank-parallelism registers).
type View interface {
	// NumThreads returns the number of hardware threads sharing the
	// controller.
	NumThreads() int
	// QueuedBanks returns the number of distinct banks (across all
	// channels) for which the given thread has at least one request
	// waiting to be serviced — the paper's BankWaitingParallelism.
	QueuedBanks(thread int) int
	// QueuedRequests returns the number of read requests the thread
	// has waiting to be serviced, the quantity the paper's
	// interference update amortizes over ("amortized across those
	// waiting requests", Section 3.2.2); QueuedBanks is its hardware
	// proxy.
	QueuedRequests(thread int) int
	// InService returns the number of distinct banks currently
	// servicing requests from the thread — the paper's
	// BankAccessParallelism register ("the number of banks that are
	// kept busy due to Thread C's requests", Table 1).
	InService(thread int) int
	// HasQueued reports whether the thread has at least one request
	// waiting in the request buffer.
	HasQueued(thread int) bool
}
