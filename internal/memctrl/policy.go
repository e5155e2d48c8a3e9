package memctrl

import "stfm/internal/dram"

// Candidate is a request presented to the policy with the next DRAM
// command it needs given the current row-buffer state of its bank.
// Arbitration builds one for every eligible request of a bank (level 1)
// and compares the ready bank winners across the channel (level 2);
// DRAM timing readiness gates only level 2, not the bank's choice (the
// paper's per-bank schedulers arbitrate requests, then issue the
// winner's commands as they become ready).
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
}

// IsColumn reports whether the candidate's next command is a column
// access — the class FR-FCFS's column-first rule prioritizes.
func (c *Candidate) IsColumn() bool { return c.Cmd.Kind.IsColumn() }

// Policy decides which ready DRAM command the controller issues each
// DRAM cycle. Implementations are the five schedulers the paper
// evaluates and one extension (PAR-BS). The controller calls
// BeginCycle once per DRAM cycle, then for each channel picks every
// bank's winner under Less, issues the best ready winner, and calls
// OnSchedule with it. A policy that needs more of the controller's
// state than the candidates carry reads it through a View taken at
// construction.
type Policy interface {
	// Name returns the scheduler's short name (e.g. "FR-FCFS").
	Name() string
	// BeginCycle is invoked once per DRAM cycle before any selection,
	// letting stateful policies (STFM's unfairness check, NFQ's
	// bookkeeping, PAR-BS's batch formation) update per-cycle state.
	BeginCycle(now int64)
	// Less reports whether candidate a has strictly higher priority
	// than candidate b. Both candidates are on the same channel. Level 1
	// compares the eligible requests of one bank, ready or not; level 2
	// compares the banks' winners whose commands are ready.
	Less(a, b *Candidate) bool
	// OnSchedule is invoked when the controller issues chosen's command,
	// before the command reaches the channel and before the request leaves
	// its queue, so View queries made during the call see the pre-issue
	// queues and bank state (chosen included). STFM asks its View which
	// threads the command delays, and FR-FCFS+Cap and NFQ whether it
	// bypasses an older row access; a policy that needs neither reads
	// nothing. OnSchedule may write only the policy's own registers, and
	// must not keep chosen's request pointer past the call.
	OnSchedule(now int64, chosen *Candidate)
	// OrderEpoch returns a counter that the policy bumps whenever
	// internal state consulted by Less changes — i.e. whenever Less(a, b)
	// could return a different answer than it did on an earlier cycle
	// for the same two candidates. While the epoch (together with the
	// bank's state epoch and the bank queue's membership version) is
	// unchanged, the controller reuses the previously selected per-bank
	// winner instead of re-running the Less tournament over the bank's
	// queue, and it keeps a channel's cached no-issue horizon, which is
	// the earliest ready edge among those winners.
	//
	// The contract covers only policy-internal state: candidate-derived
	// inputs (command kind, row-buffer outcome, arrival ID) are tracked
	// by the controller's own epochs. State that changes only for a
	// request leaving its queue (PAR-BS unmarking a request whose column
	// access issued) needs no bump, since the removal already
	// invalidates its bank. An order that depends on time must bump the
	// epoch when time changes an answer: NFQ's inversion expiry bumps it
	// in BeginCycle on the edge the expiry falls due, and NFQ reports the
	// expiry as its EventPolicy event so the controller ticks that edge.
	// Stateless orders (FR-FCFS, FCFS) return a constant. The epoch is a
	// cache key, not state: checkpoints do not carry it, because a
	// restored controller starts with every memo and horizon empty.
	OrderEpoch() uint64
}

// EventPolicy is an optional extension interface for policies whose
// BeginCycle does time-driven work of its own — per-cycle fairness
// accounting (STFM), an inversion expiry that changes the order (NFQ)
// — rather than reacting only to enqueue/issue/complete events.
// NextPolicyEvent returns the next CPU cycle at which the policy must
// observe a DRAM clock edge; the controller folds it (rounded up to an
// edge) into the horizon it reports, so event-driven stepping never
// skips an edge the policy needed. It is called after BeginCycle on a
// ticked edge, so implementations report from up-to-date state.
// Policies that react purely to scheduling events need not implement
// it.
type EventPolicy interface {
	// NextPolicyEvent returns the next CPU cycle at which the policy
	// must observe a DRAM clock edge; see the interface comment.
	NextPolicyEvent(now int64) int64
}

// View is the read-only controller interface given to policies that
// need request-buffer state beyond the candidates: STFM's
// bank-parallelism registers and interference victims, FR-FCFS+Cap's
// and NFQ's bypassed row accesses, PAR-BS's batch formation.
//
// The mask queries return one bit per thread (bit t for thread t), so
// they cover threads 0–63; STFM, their reader, rejects more threads in
// NewSTFM. They scan the queues under the channel's current write
// eligibility (its reads, and its writes when the write-drain policy
// admits them this edge), refresh each visited request's timing memo,
// and copy nothing. Called from OnSchedule they answer for the
// pre-issue state.
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
	// BankWaiters returns the threads with an eligible request in bank
	// bank of channel ch (waiting), and those among them with one whose
	// next command is ready at now (ready).
	BankWaiters(now int64, ch, bank int) (waiting, ready uint64)
	// ReadyColumnWaiters returns the threads with an eligible request
	// whose next command is a column access ready at now, in any bank of
	// channel ch except exceptBank.
	ReadyColumnWaiters(now int64, ch, exceptBank int) uint64
	// OlderRowWaiting reports whether an eligible request of bank bank
	// of channel ch with an ID below id (an older one) needs a row
	// command, a precharge or an activate, next.
	OlderRowWaiting(ch, bank int, id uint64) bool
	// AppendQueuedReads appends channel ch's waiting reads (column
	// access not yet issued) to dst, in no particular order, and returns
	// the extended slice. The controller recycles a request once it
	// completes, so a policy reads what it needs right away and does not
	// dereference the pointers later.
	AppendQueuedReads(dst []*Request, ch int) []*Request
}
