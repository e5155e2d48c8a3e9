// Package cpu models the processor cores of the paper's Table 2: a
// 4 GHz core with a 128-entry instruction window, 3-wide fetch and
// commit (at most one memory operation per fetch group), non-blocking
// memory accesses bounded by MSHRs, and — crucially for STFM — the
// memory stall-time accounting that produces Tshared: the core counts
// a stall cycle whenever it cannot commit any instruction because the
// oldest instruction is an incomplete L2 miss (Section 3.2.1).
//
// The model is trace-driven: it consumes a trace.Stream of compute
// gaps and memory accesses. Memory instructions issue their accesses
// as soon as they enter the window, which yields realistic
// memory-level parallelism (multiple outstanding DRAM requests from
// one thread, hence bank-level parallelism).
package cpu

import (
	"fmt"

	"stfm/internal/trace"
)

// Horizon is the "no self-scheduled event" sentinel a core returns from
// Tick when it cannot make progress on its own: every state change it
// is waiting for (a DRAM fill, a cache-hit completion, a write buffer
// draining) arrives through an external component whose own horizon
// bounds the simulation jump. The value matches dram.Horizon.
const Horizon = int64(1) << 62

// Memory is the port a core uses to access its memory hierarchy. It is
// implemented by cache.Hierarchy (cache mode) and by the simulation
// engine's direct DRAM port (miss-stream mode).
type Memory interface {
	// Load issues a cache-line read for the load with issue sequence
	// number seq. If accepted, the port completes it exactly once, when
	// the data is available, by calling the core's LoadDone with seq;
	// l2Miss reports whether the access goes to DRAM (the
	// stall-accounting classification). A false accepted means resources
	// are exhausted; retry next cycle.
	Load(now int64, lineAddr uint64, seq int64) (accepted, l2Miss bool)
	// Store submits non-blocking write traffic. A false return means
	// the write path is backed up; retry next cycle.
	Store(now int64, lineAddr uint64) bool
}

// Config sizes a core.
type Config struct {
	// Width is the fetch/commit width in instructions per cycle (3).
	Width int
	// WindowSize is the instruction window capacity (128).
	WindowSize int
}

// DefaultConfig returns the paper's core parameters.
func DefaultConfig() Config { return Config{Width: 3, WindowSize: 128} }

// winEntry is a group of instructions in the window: some compute
// instructions optionally terminated by one memory instruction.
type winEntry struct {
	compute int64 // compute instructions not yet committed
	hasMem  bool
	memDone bool
	l2Miss  bool

	// Deferred-issue state for dependent loads.
	issued bool
	addr   uint64
	chain  int
	dep    bool

	// seq is the core-local issue sequence number assigned when the
	// load was accepted by the memory port: the tag the port completes
	// it by (LoadDone). It has no effect on scheduling.
	seq int64
}

// Core is one trace-driven processor core.
type Core struct {
	id     int
	cfg    Config
	mem    Memory
	stream trace.Stream

	// ring is the instruction window: a fixed ring of WindowSize entries
	// holding n live ones, the oldest at head. Every entry holds at
	// least one instruction (an open tail whose compute just committed
	// is the only, transient, exception, and it is then the sole entry),
	// so WindowSize slots always suffice. A live entry never moves, so
	// unissued can name it by slot.
	ring      []winEntry
	head      int
	n         int
	occupancy int // instructions currently in the window

	// Fetch state: the access being brought into the window.
	fetching  bool
	curAccess trace.Access
	gapLeft   int64 // compute instructions of curAccess still to fetch
	// tailOpen marks the newest entry as open, accumulating compute
	// instructions until a memory instruction closes it.
	tailOpen bool

	streamDone bool

	// unissued holds the ring slots of entries whose loads are waiting
	// on a dependence-chain predecessor or on memory-port resources.
	unissued []int
	// storeBlocked records that the current writeback was rejected by
	// the memory port this cycle; it can only be accepted again after an
	// external event, so the core does not self-schedule a retry.
	storeBlocked bool
	// fetchedMem records that fetch placed a memory instruction into
	// the window this cycle; issueLoads runs before fetch, so the entry
	// gets its first issue attempt next cycle and the core must wake.
	fetchedMem bool
	// chainBusy counts outstanding loads per dependence chain; a
	// dependent load issues only when its chain drains to zero.
	chainBusy []int

	// Architected counters.
	committed  int64 // total committed instructions
	memStall   int64 // Tshared: cycles with zero commits, head blocked on L2 miss
	stallAny   int64 // cycles with zero commits, any reason
	cycles     int64
	dramLoads  int64
	l2MissHead bool

	// issueSeq is the last issue sequence number assigned to an
	// accepted load (see winEntry.seq).
	issueSeq int64

	// nextAt is the next cycle the core must be Tick'd at to stay
	// cycle-accurate: Tick's self-scheduled event when it has one, the
	// next cycle when an external unblock must be polled for (a
	// resource-rejected load, a back-pressured writeback), and Horizon
	// when the core is parked — every state change it waits for arrives
	// through one of its own load completions (LoadDone), which reset
	// nextAt.
	// The engine simply skips Ticks on cycles before nextAt; the
	// bookkeeping those ticks would have performed is applied lazily by
	// FlushIdle.
	nextAt int64

	// Lazy accounting. settled is the exclusive upper bound of the
	// cycles already reflected in the architected counters; cycles in
	// [settled, now) that the engine skipped are applied in bulk by
	// FlushIdle: as pure ticks when the last Tick started a pure run,
	// otherwise as idle cycles at the per-cycle rates recorded at the
	// last Tick. The rates are frozen at tick time deliberately: a load
	// completion at cycle T mutates window state before the core's own
	// Tick at T, but the idle window it terminates ends at T, so the
	// park-time classification is the correct one for every cycle in it.
	settled      int64
	pure         bool // skipped cycles are pure ticks (see pureTicks)
	idleHasWork  bool // a parked cycle is a stall cycle (stallAny)
	idleMemStall bool // ... and a Tshared memory-stall cycle (memStall)

	// target is the thread's instruction target (0 when it has none): a
	// pure run stops short of it, so the tick that reaches it is a real
	// one and its owner sees the crossing on that tick.
	target int64
}

// New builds a core with the given id over a memory port and an
// instruction trace.
func New(id int, cfg Config, mem Memory, stream trace.Stream) *Core {
	if cfg.Width <= 0 || cfg.WindowSize <= 0 {
		panic("cpu: Width and WindowSize must be positive")
	}
	return &Core{id: id, cfg: cfg, mem: mem, stream: stream, ring: make([]winEntry, cfg.WindowSize)}
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Committed returns the number of committed instructions. Like
// MemStallCycles and Cycles, it lags on a core the engine skipped in
// the middle of a pure-compute run: flush (FlushIdle) before reading a
// possibly-skipped core.
func (c *Core) Committed() int64 { return c.committed }

// SetTarget sets the thread's instruction target, or clears it with 0.
// A pure-compute run never commits the target's instruction, so the
// Tick that reaches the target is never skipped.
func (c *Core) SetTarget(target int64) { c.target = target }

// MemStallCycles returns the Tshared counter: cycles in which the core
// could not commit because the oldest instruction was an incomplete L2
// miss.
func (c *Core) MemStallCycles() int64 { return c.memStall }

// StallCycles returns the cycles with zero commits for any reason.
func (c *Core) StallCycles() int64 { return c.stallAny }

// Cycles returns the number of cycles the core has run.
func (c *Core) Cycles() int64 { return c.cycles }

// DRAMLoads returns the demand loads that were classified as L2 misses.
func (c *Core) DRAMLoads() int64 { return c.dramLoads }

// Done reports whether the core has drained a finite trace completely.
func (c *Core) Done() bool { return c.streamDone && c.n == 0 && !c.fetching }

// IPC returns committed instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.committed) / float64(c.cycles)
}

// MCPI returns memory stall cycles per instruction so far (the paper's
// MCPI metric, the basis of the slowdown definition).
func (c *Core) MCPI() float64 {
	if c.committed == 0 {
		return 0
	}
	return float64(c.memStall) / float64(c.committed)
}

// Tick advances the core by one CPU cycle: commit first (so completed
// loads retire with their completion-cycle timing), then issue loads
// whose dependences have resolved, then fetch. It returns the next
// cycle the core must be ticked at on its own — now+1 when it can
// commit, issue or fetch next cycle, now+1+k when the next k ticks are
// pure (FlushIdle applies them in closed form), Horizon when it is
// fully stalled on external events (DRAM fills, cache completions,
// back-pressured buffers). Ticking the core on cycles it did not ask
// for is always safe; failing to tick it at its reported cycle is not.
func (c *Core) Tick(now int64) int64 {
	c.FlushIdle(now)
	c.settled = now + 1
	c.pure = false
	c.cycles++
	c.fetchedMem = false
	committed := c.commit()
	c.issueLoads(now)
	c.fetch(now)
	hasWork := c.n > 0 || c.fetching || !c.streamDone
	if committed == 0 {
		if !hasWork {
			c.recordIdleRates(false)
			c.nextAt = Horizon
			return Horizon
		}
		c.stallAny++
		if c.n > 0 {
			head := &c.ring[c.head]
			if head.compute == 0 && head.hasMem && !head.memDone && head.l2Miss {
				// The oldest instruction is an L2 miss that has not
				// returned: a Tshared stall cycle.
				c.memStall++
			}
		}
	}
	n := c.nextEvent(now)
	if k := c.pureTicks(); k > 0 {
		c.pure = true
		n += k
	}
	c.nextAt = n
	if n >= Horizon {
		// The engine may skip this core — the jump target is bounded
		// by the returned horizon, so even a polling core is passed
		// over when the system jumps beyond now+1. Freeze the idle
		// classification for FlushIdle's bulk accounting. When n is
		// now+1 the core provably ticks next cycle, the flush window
		// stays empty, and the rates are never read — skip the work.
		c.recordIdleRates(hasWork)
		if !c.parkSafe() {
			// Fully stalled, but an unblock must be polled for: it
			// arrives as shared-resource back-pressure clearing (a
			// rejected load or writeback), not as one of this core's
			// load completions.
			c.nextAt = now + 1
		}
	}
	return n
}

// recordIdleRates freezes the per-cycle stall classification of the
// post-tick state for FlushIdle's bulk accounting. On an idle cycle the
// core commits nothing by definition, so the classification is exactly
// what a dense Tick would apply: a stall cycle whenever in-flight work
// exists, and a Tshared memory-stall cycle when additionally the oldest
// instruction is an incomplete L2 miss. That state is invariant while
// the core is parked — it changes only through the core's own activity
// or a load completion, and a completion at cycle T wakes the core for
// a Tick at T, ending the idle window there.
func (c *Core) recordIdleRates(hasWork bool) {
	c.idleHasWork = hasWork
	c.idleMemStall = false
	if hasWork && c.n > 0 {
		head := &c.ring[c.head]
		if head.compute == 0 && head.hasMem && !head.memDone && head.l2Miss {
			c.idleMemStall = true
		}
	}
}

// NextAt returns the next cycle the core must be Tick'd at. On cycles
// before it, the core is provably inert — the engine skips the Tick
// entirely and the skipped cycles' stall accounting is applied lazily
// by FlushIdle. Load completions pull it to the cycle they arrive at,
// so it must be re-read every cycle after the memory system has acted.
func (c *Core) NextAt() int64 { return c.nextAt }

// parkSafe reports whether every unblock the stalled core is waiting
// for arrives via one of its own load completions (which reset nextAt).
// A rejected writeback or a load held back by anything other than a
// busy dependence chain of this core clears through shared state the
// completions do not cover, so the core must poll instead.
func (c *Core) parkSafe() bool {
	if c.storeBlocked {
		return false
	}
	for _, slot := range c.unissued {
		e := &c.ring[slot]
		if !e.dep || c.chainOutstanding(e.chain) == 0 {
			return false
		}
	}
	return true
}

// pureTicks returns k, the number of ticks after this one that are
// pure: each commits exactly Width compute instructions from the head
// entry, issues no load, and fetches exactly Width compute instructions
// of the current gap into the open tail. They change no state outside
// the core, so FlushIdle can apply them in closed form. That holds
// while fetch is mid-gap into the open tail and every unissued load is
// held by a busy dependence chain, which only this core's own load
// completions release (LoadDone settles the core first). The run ends
// before the gap, the head entry's compute (unless the head is the open
// tail, which fetch refills as commit drains it) or the instruction
// target runs out.
func (c *Core) pureTicks() int64 {
	if !c.tailOpen || !c.fetching || !c.parkSafe() {
		return 0
	}
	w := int64(c.cfg.Width)
	k := c.gapLeft / w
	head := c.ring[c.head].compute
	if c.n > 1 {
		k = min(k, head/w)
	} else if head < w {
		return 0
	}
	if c.target > 0 {
		k = min(k, (c.target-c.committed-1)/w)
	}
	return k
}

// nextEvent reports, from post-tick state, whether the core can act at
// now+1 without any external event. Cases that need an external wake —
// an unissued load whose port or dependence must clear, a rejected
// writeback, a full window behind an in-flight miss — return Horizon:
// the completion that unblocks them is tracked by the controller or the
// cache hierarchy, whose horizons bound the simulation jump.
func (c *Core) nextEvent(now int64) int64 {
	if c.n > 0 {
		head := &c.ring[c.head]
		if head.compute > 0 || !head.hasMem || head.memDone {
			// Commit can retire next cycle, or pop the open tail whose
			// compute it just drained (which may finish the trace).
			return now + 1
		}
	}
	if c.fetchedMem {
		return now + 1 // first issue attempt for the new load
	}
	if c.fetching {
		if c.curAccess.Kind == trace.Write && c.gapLeft == 0 {
			if c.storeBlocked {
				return Horizon // write path backed up; external drain
			}
			return now + 1 // fetch budget ran out before the store
		}
		if c.occupancy < c.cfg.WindowSize {
			return now + 1 // room to fetch compute or the memory op
		}
		return Horizon // window full behind a blocked head
	}
	if !c.streamDone {
		return now + 1 // fetch pulls the next trace access
	}
	return Horizon
}

// FlushIdle brings the architected counters and the window up to date
// through cycle now-1, applying the skipped cycles [settled, now) in
// closed form. It applies exactly the bookkeeping k dense Ticks would
// perform, so lazy accounting is bit-identical to dense ticking. The
// cycle counter always advances. In a pure run (see pureTicks) each
// cycle commits Width compute instructions from the head entry and
// fetches Width more of the gap into the open tail, and the stall
// counters stay put. In an idle window the stall counters advance at the
// park-time classification (see recordIdleRates for why that
// classification is exact for the whole window). Callers must flush
// before reading Committed, MemStallCycles, StallCycles or Cycles of a
// possibly-skipped core; Tick and LoadDone flush themselves. Flushing
// is idempotent and monotone: a second call with the same or an earlier
// cycle is a no-op.
func (c *Core) FlushIdle(now int64) {
	k := now - c.settled
	if k <= 0 {
		return
	}
	c.settled = now
	c.cycles += k
	if c.pure {
		n := k * int64(c.cfg.Width)
		c.committed += n
		c.ring[c.head].compute -= n
		c.ring[c.slot(c.n-1)].compute += n
		c.gapLeft -= n
		return
	}
	if !c.idleHasWork {
		return
	}
	c.stallAny += k
	if c.idleMemStall {
		c.memStall += k
	}
}

// commit retires up to Width instructions in order and returns how
// many were retired this cycle.
func (c *Core) commit() int {
	budget := c.cfg.Width
	done := 0
	for budget > 0 && c.n > 0 {
		head := &c.ring[c.head]
		if head.compute > 0 {
			n := int64(budget)
			if head.compute < n {
				n = head.compute
			}
			head.compute -= n
			budget -= int(n)
			done += int(n)
			c.committed += n
			c.occupancy -= int(n)
			continue
		}
		if head.hasMem {
			if !head.memDone {
				break
			}
			budget--
			done++
			c.committed++
			c.occupancy--
		}
		c.popHead()
	}
	return done
}

// popHead retires the oldest entry. Popping the sole entry closes an
// open tail, since the tail is always the newest entry.
func (c *Core) popHead() {
	if c.n == 1 {
		c.tailOpen = false
	}
	if c.head++; c.head == len(c.ring) {
		c.head = 0
	}
	c.n--
}

// push opens a new, zeroed entry at the young end of the window.
func (c *Core) push() {
	if c.n == len(c.ring) {
		panic("cpu: instruction window ring overflow") // structural invariant
	}
	c.ring[c.slot(c.n)] = winEntry{}
	c.n++
}

// slot maps a window position (0 = oldest) to its ring slot.
func (c *Core) slot(pos int) int {
	s := c.head + pos
	if s >= len(c.ring) {
		s -= len(c.ring)
	}
	return s
}

// fetch brings up to Width instructions into the window, issuing
// memory accesses as their instructions enter.
func (c *Core) fetch(now int64) {
	c.storeBlocked = false
	budget := c.cfg.Width
	for budget > 0 {
		if !c.fetching {
			acc, ok := c.stream.Next()
			if !ok {
				c.streamDone = true
				return
			}
			c.fetching = true
			c.curAccess = acc
			c.gapLeft = acc.Gap
		}
		// Writebacks are not instructions: submit and move on.
		if c.curAccess.Kind == trace.Write && c.gapLeft == 0 {
			if !c.mem.Store(now, c.curAccess.LineAddr) {
				c.storeBlocked = true
				return // write path backed up; retry after an external event
			}
			c.fetching = false
			continue
		}
		free := c.cfg.WindowSize - c.occupancy
		if free == 0 {
			return
		}
		if c.gapLeft > 0 {
			n := int64(budget)
			if c.gapLeft < n {
				n = c.gapLeft
			}
			if int64(free) < n {
				n = int64(free)
			}
			c.appendCompute(n)
			c.gapLeft -= n
			budget -= int(n)
			continue
		}
		// Fetch the memory instruction itself (costs one slot and one
		// fetch unit; at most one memory op per fetch group). The
		// access issues later, once its dependence chain is clear and
		// memory-port resources are available.
		slot := c.closeEntryWithMem()
		entry := &c.ring[slot]
		entry.addr = c.curAccess.LineAddr
		entry.chain = c.curAccess.Chain
		entry.dep = c.curAccess.Dep
		c.unissued = append(c.unissued, slot)
		c.fetchedMem = true
		c.occupancy++
		budget = 0 // one memory op ends the fetch group
		c.fetching = false
	}
}

// issueLoads sends window loads to the memory port in program order,
// holding back dependent loads whose chain predecessor is still
// outstanding.
func (c *Core) issueLoads(now int64) {
	kept := c.unissued[:0]
	for _, slot := range c.unissued {
		e := &c.ring[slot]
		if e.dep && c.chainOutstanding(e.chain) > 0 {
			kept = append(kept, slot)
			continue
		}
		accepted, l2Miss := c.mem.Load(now, e.addr, c.issueSeq+1)
		if !accepted {
			kept = append(kept, slot) // resources exhausted; retry next cycle
			continue
		}
		c.issueSeq++
		e.seq = c.issueSeq
		e.issued = true
		e.l2Miss = l2Miss
		if l2Miss {
			c.dramLoads++
		}
		c.growChain(e.chain)
		c.chainBusy[e.chain]++
	}
	c.unissued = kept
}

// LoadDone completes the in-flight load with issue sequence number seq
// at cycle now: it settles the cycles before now (FlushIdle), marks the
// load done, releases its dependence chain, and wakes a parked core or
// ends a pure run (the completion may unblock commit or a dependent
// load at this cycle). Memory ports call it exactly once per
// accepted load. An issued, incomplete load cannot commit, so its entry
// is always in the window; the scan starts at the oldest entry, where
// completions mostly land. A seq naming no in-flight load is a port
// bug and panics.
func (c *Core) LoadDone(now, seq int64) {
	c.FlushIdle(now)
	for pos := 0; pos < c.n; pos++ {
		e := &c.ring[c.slot(pos)]
		if e.seq != seq || !e.issued || e.memDone {
			continue
		}
		e.memDone = true
		c.chainBusy[e.chain]--
		if now < c.nextAt {
			c.nextAt = now
		}
		return
	}
	panic(fmt.Sprintf("cpu: core %d has no in-flight load with issue seq %d", c.id, seq))
}

func (c *Core) chainOutstanding(chain int) int {
	if chain >= len(c.chainBusy) {
		return 0
	}
	return c.chainBusy[chain]
}

func (c *Core) growChain(chain int) {
	for chain >= len(c.chainBusy) {
		c.chainBusy = append(c.chainBusy, 0)
	}
}

// appendCompute adds n compute instructions to the open tail entry.
func (c *Core) appendCompute(n int64) {
	if !c.tailOpen {
		c.push()
		c.tailOpen = true
	}
	c.ring[c.slot(c.n-1)].compute += n
	c.occupancy += int(n)
}

// closeEntryWithMem turns the open tail entry into one terminated by a
// memory instruction and returns its slot.
func (c *Core) closeEntryWithMem() int {
	if !c.tailOpen {
		c.push()
	}
	slot := c.slot(c.n - 1)
	c.ring[slot].hasMem = true
	c.tailOpen = false
	return slot
}
