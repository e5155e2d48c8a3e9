// Package memctrl implements the DRAM memory controller of the paper's
// Section 2.2–2.3: a request buffer, a write buffer, per-bank command
// selection and an across-bank channel scheduler, with the
// prioritization policy factored out behind the Policy interface so
// that FR-FCFS, FCFS, FR-FCFS+Cap, NFQ and STFM plug in unchanged.
package memctrl

import "stfm/internal/dram"

// Request is one outstanding memory request (a cache-line read fill or
// a writeback) held in the controller's request buffer. Each entry
// carries the ID of the thread that generated it (the paper's Table 1
// per-request Thread-ID register).
type Request struct {
	// ID is a unique, monotonically increasing identifier; it doubles
	// as a total arrival order for FCFS tie-breaking.
	ID uint64
	// Thread is the hardware thread (core) that generated the request.
	Thread int
	// LineAddr is the physical cache-line address (byte address /
	// line size).
	LineAddr uint64
	// Loc is the DRAM coordinate of the line.
	Loc dram.Location
	// IsWrite marks DRAM writes (cache writebacks). Reads are demand
	// fills that a core may be stalled on.
	IsWrite bool
	// Arrival is the CPU cycle the request entered the controller.
	Arrival int64
	// Tag is the consumer's handle for a read, set by EnqueueRead and
	// handed back with the finished request (ReadConsumer): the issuing
	// load's sequence number in direct mode. Writes carry 0.
	Tag int64

	// Started is set when the first DRAM command for this request is
	// issued; the request then occupies a bank (it counts toward the
	// thread's BankAccessParallelism).
	Started bool
	// CASIssued is set once the column access has been issued; the
	// request is then in its data burst and no longer schedulable.
	CASIssued bool
	// FirstScheduledOutcome records the row-buffer classification the
	// request had when its first command was scheduled.
	FirstScheduledOutcome dram.RowBufferOutcome
	// CompleteAt is the absolute cycle the request finishes (valid
	// once CASIssued).
	CompleteAt int64

	// Scheduling memo, owned by the controller's indexed scheduler: the
	// next DRAM command the request needs and the absolute cycle that
	// command satisfies all timing constraints, both valid while the
	// target bank's dram.Channel.BankEpoch still equals cacheEpoch.
	// cacheEpoch == 0 means "never computed" (BankEpoch is never zero).
	// The memo turns the per-edge NextCommand/NextReady recomputation
	// into a single epoch comparison on the — overwhelmingly common —
	// edges where the bank's state did not change.
	cacheEpoch   uint64
	cacheCmd     dram.Command
	cacheReadyAt int64
}

// Age returns how long the request has been in the buffer at cycle now.
func (r *Request) Age(now int64) int64 { return now - r.Arrival }

// Older reports whether r arrived before other (FCFS order). IDs are
// allocated in arrival order, so they break same-cycle ties
// deterministically.
func (r *Request) Older(other *Request) bool { return r.ID < other.ID }
