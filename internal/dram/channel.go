package dram

import "fmt"

// Horizon is the "no event scheduled" sentinel returned by the
// next-event queries of the stepping protocol: a cycle far enough in
// the future that it never bounds a simulation jump, yet far from
// int64 overflow when offsets are added to it.
const Horizon = int64(1) << 62

// Stats accumulates per-channel event counts for reporting and tests.
type Stats struct {
	Activates   int64
	Precharges  int64
	Reads       int64
	Writes      int64
	RowHits     int64 // column accesses that were row-buffer hits
	RowClosed   int64 // accesses that found the bank closed
	RowConflict int64 // accesses that hit a conflicting open row
	BusyCycles  int64 // data-bus busy CPU cycles
	Refreshes   int64 // auto-refresh operations (all-bank or per-bank)
}

// RowHitRate returns the fraction of serviced column accesses whose
// request found its row already open.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowClosed + s.RowConflict
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Channel models one independent DRAM channel: a set of banks sharing
// an address/command bus (one command per DRAM cycle, enforced by the
// controller's decision loop) and a data bus (one burst at a time).
type Channel struct {
	timing Timing
	banks  []Bank

	// dataBusFreeAt is the cycle at which the data bus becomes free.
	// A column access may issue at cycle c only if its burst window
	// [c+CL, c+CL+BL) starts at or after dataBusFreeAt.
	dataBusFreeAt int64

	// nextRefreshAt is the next refresh edge (only meaningful with
	// timing.REFI > 0); refreshEvery is the cadence between edges —
	// REFI for all-bank refresh, REFI/banks for rotating per-bank
	// refresh (so each bank still sees one refresh per REFI).
	// refreshBank is the per-bank rotation cursor.
	nextRefreshAt int64
	refreshEvery  int64
	refreshBank   int

	// banksPerGroup is the bank-group width when timing.BankGroups > 0;
	// 0 disables the tCCD_L/tCCD_S column-spacing constraint entirely
	// (DDR2/DDR3). lastColAt and lastColGroup record the channel's most
	// recent column command (issue time and bank group) — the state the
	// CAS-to-CAS spacing check compares against.
	banksPerGroup int
	lastColAt     int64
	lastColGroup  int

	// Rank-level inter-command constraints: the last four activate
	// times (for tRRD and the rolling tFAW window) and the completion
	// times of the last read and write bursts (for bus turnaround).
	actTimes     [4]int64
	actNext      int
	readBurstEnd int64
	// writeRecoveryEnd is the last write burst's end plus tWTR.
	writeRecoveryEnd int64

	// sharedEpoch counts changes to the rank- and bus-level constraint
	// state above (activate history for tRRD/tFAW, data-bus occupancy,
	// read/write turnaround, and the bank-group CAS-to-CAS state —
	// every column issue bumps it). Together with a bank's own epoch it forms
	// the validity key for memoized NextCommand/NextReady answers: see
	// BankEpoch. Starts at 1 so the combined epoch is never zero — a
	// zero cache key can then mean "never computed".
	sharedEpoch uint64

	stats Stats
}

// NewChannel creates a channel with the given number of banks.
func NewChannel(banks int, t Timing) *Channel {
	c := &Channel{timing: t, banks: make([]Bank, banks), sharedEpoch: 1}
	c.refreshEvery = t.REFI
	if t.RefreshPerBank && banks > 0 {
		c.refreshEvery = t.REFI / int64(banks)
		if c.refreshEvery < 1 {
			c.refreshEvery = 1
		}
	}
	c.nextRefreshAt = c.refreshEvery
	if t.BankGroups > 0 && banks >= t.BankGroups {
		c.banksPerGroup = banks / t.BankGroups
	}
	for i := range c.actTimes {
		c.actTimes[i] = -1 << 62
	}
	c.readBurstEnd = -1 << 62
	c.writeRecoveryEnd = -1 << 62
	c.lastColAt = -1 << 62
	return c
}

// MaybeRefresh performs an auto-refresh when the refresh interval has
// elapsed. All-bank mode (the default): every bank is precharged and
// blocked for RFC cycles. Per-bank mode (Timing.RefreshPerBank, the
// GDDR5/HBM REFpb scheme): only the rotation cursor's bank loses its
// row and blocks, every REFI/banks cycles, so each bank still sees one
// refresh per REFI while the rest of the channel keeps serving. It is
// a no-op when refresh is disabled. The controller calls it once per
// DRAM cycle, before scheduling; the returned flag reports whether a
// refresh fired (and bank state therefore changed).
func (c *Channel) MaybeRefresh(now int64) bool {
	if c.timing.REFI <= 0 || now < c.nextRefreshAt {
		return false
	}
	if c.timing.RefreshPerBank {
		// Per-bank refresh requires the bank precharged first; the
		// model folds that into the refresh (an open row is lost),
		// matching the all-bank scheme's precharge-all simplification.
		b := &c.banks[c.refreshBank]
		b.state = BankClosed
		if at := now + c.timing.RFC; at > b.actReadyAt {
			b.actReadyAt = at
		}
		b.epoch++
		c.refreshBank = (c.refreshBank + 1) % len(c.banks)
	} else {
		for i := range c.banks {
			b := &c.banks[i]
			// Auto-refresh implies precharge-all; open rows are lost and
			// every bank blocks until the refresh cycle completes.
			b.state = BankClosed
			if at := now + c.timing.RFC; at > b.actReadyAt {
				b.actReadyAt = at
			}
			b.epoch++
		}
		c.sharedEpoch++
	}
	c.stats.Refreshes++
	for c.nextRefreshAt <= now {
		c.nextRefreshAt += c.refreshEvery
	}
	return true
}

// Timing returns the channel's timing parameters.
func (c *Channel) Timing() Timing { return c.timing }

// NumBanks returns the number of banks on the channel.
func (c *Channel) NumBanks() int { return len(c.banks) }

// Bank returns the bank with the given index.
func (c *Channel) Bank(i int) *Bank { return &c.banks[i] }

// BankEpoch returns the combined state epoch governing scheduling
// answers for the bank: the bank's own epoch plus the channel's
// shared-constraint epoch. Both components are monotonically
// non-decreasing, so their sum changes whenever either does — a
// NextCommand/CommandReadyAt result memoized under one BankEpoch value
// is exact for as long as BankEpoch returns that same value. It is
// never zero (sharedEpoch starts at 1), so callers may use zero as the
// "no cached answer" sentinel.
func (c *Channel) BankEpoch(bank int) uint64 {
	return c.sharedEpoch + c.banks[bank].epoch
}

// Stats returns a copy of the channel's counters.
func (c *Channel) Stats() Stats { return c.stats }

// DataBusFreeAt returns the cycle the data bus becomes free.
func (c *Channel) DataBusFreeAt() int64 { return c.dataBusFreeAt }

// Outcome classifies an access to (bank, row) against the current
// row-buffer state of that bank.
func (c *Channel) Outcome(bank, row int) RowBufferOutcome {
	return c.banks[bank].Outcome(row)
}

// NextCommand returns the next DRAM command required to service a
// column access to (bank, row): a precharge if a conflicting row is
// open, an activate if the bank is closed, otherwise the column access
// itself.
func (c *Channel) NextCommand(bank, row int, write bool) Command {
	b := &c.banks[bank]
	switch b.Outcome(row) {
	case RowConflict:
		return Command{Kind: CmdPrecharge, Bank: bank, Row: row}
	case RowClosed:
		return Command{Kind: CmdActivate, Bank: bank, Row: row}
	default:
		kind := CmdRead
		if write {
			kind = CmdWrite
		}
		return Command{Kind: kind, Bank: bank, Row: row}
	}
}

// CanIssue reports whether cmd respects all bank and data-bus timing
// constraints at cycle now — the paper's definition of a "ready" DRAM
// command (footnote 4).
func (c *Channel) CanIssue(cmd Command, now int64) bool {
	b := &c.banks[cmd.Bank]
	switch cmd.Kind {
	case CmdActivate:
		if !b.CanActivate(now) {
			return false
		}
		// tRRD against the most recent activate on the rank.
		last := c.actTimes[(c.actNext+3)%4]
		if now-last < c.timing.RRD {
			return false
		}
		// tFAW: the fourth-last activate must be at least FAW ago.
		return now-c.actTimes[c.actNext] >= c.timing.FAW
	case CmdPrecharge:
		return b.CanPrecharge(now)
	case CmdRead, CmdWrite:
		if !b.CanColumn(now, cmd.Row) {
			return false
		}
		// Bank-group CAS-to-CAS spacing against the channel's previous
		// column command (tCCD_L within a group, tCCD_S across groups).
		if c.banksPerGroup > 0 && now < c.lastColAt+c.ccd(cmd.Bank) {
			return false
		}
		if now+c.timing.CL < c.dataBusFreeAt {
			return false
		}
		if cmd.Kind == CmdRead {
			// Write-to-read turnaround on the rank.
			return now >= c.writeRecoveryEnd
		}
		// Read-to-write turnaround on the data bus.
		return now >= c.readBurstEnd+c.timing.RTW-c.timing.CL
	}
	return false
}

// NextReady returns the earliest cycle >= now at which cmd would
// satisfy every bank and data-bus timing constraint, assuming no other
// command issues in the meantime. It is the time-query mirror of
// CanIssue — for any t >= now, CanIssue(cmd, t) holds iff
// t >= NextReady(cmd, now) — and is what lets the controller report an
// event horizon instead of polling CanIssue every DRAM cycle. cmd must
// be the command NextCommand currently returns for its bank (the
// bank-state precondition of CanIssue).
func (c *Channel) NextReady(cmd Command, now int64) int64 {
	return max(now, c.CommandReadyAt(cmd))
}

// CommandReadyAt returns the absolute cycle at which cmd satisfies
// every bank and data-bus timing constraint, with no clamp to the
// present: NextReady(cmd, now) == max(now, CommandReadyAt(cmd)), and —
// given the bank-state precondition of CanIssue — CanIssue(cmd, t)
// holds for t >= 0 iff t >= CommandReadyAt(cmd). The result depends
// only on state covered by BankEpoch(cmd.Bank), which is what makes it
// memoizable: the controller caches it per request and revalidates with
// a single epoch comparison instead of recomputing the constraint max
// on every DRAM edge. The value may be negative (constraint sentinels
// predate cycle 0); callers compare, they don't schedule at it.
func (c *Channel) CommandReadyAt(cmd Command) int64 {
	b := &c.banks[cmd.Bank]
	var at int64
	switch cmd.Kind {
	case CmdActivate:
		at = b.actReadyAt
		// tRRD against the most recent activate on the rank.
		at = max(at, c.actTimes[(c.actNext+3)%4]+c.timing.RRD)
		// tFAW: the fourth-last activate must be at least FAW old.
		at = max(at, c.actTimes[c.actNext]+c.timing.FAW)
	case CmdPrecharge:
		at = b.preReadyAt
	case CmdRead, CmdWrite:
		at = b.colReadyAt
		// Bank-group CAS-to-CAS spacing (tCCD_L/tCCD_S).
		if c.banksPerGroup > 0 {
			at = max(at, c.lastColAt+c.ccd(cmd.Bank))
		}
		// The burst window [at+CL, at+CL+BL) must start at or after
		// dataBusFreeAt.
		at = max(at, c.dataBusFreeAt-c.timing.CL)
		if cmd.Kind == CmdRead {
			at = max(at, c.writeRecoveryEnd)
		} else {
			at = max(at, c.readBurstEnd+c.timing.RTW-c.timing.CL)
		}
	}
	return at
}

// NextRefresh returns the cycle of the next auto-refresh deadline
// (all-bank or per-bank), or Horizon when refresh is disabled.
func (c *Channel) NextRefresh() int64 {
	if c.timing.REFI <= 0 {
		return Horizon
	}
	return c.nextRefreshAt
}

// TimingError reports a DRAM timing-legality violation: a command was
// issued before the bank state and timing constraints allowed it. It is
// the panic value raised by Issue — a scheduler bug, not a runtime
// condition — so that run harnesses recovering the panic can surface
// the offending command, bank, and cycle as structured data instead of
// a formatted string.
type TimingError struct {
	Kind  CommandKind
	Bank  int
	Cycle int64
}

// Error implements error.
func (e *TimingError) Error() string {
	return fmt.Sprintf("dram: command %v to bank %d not ready at cycle %d", e.Kind, e.Bank, e.Cycle)
}

// Issue executes cmd at cycle now. For column accesses it returns the
// cycle at which the data burst completes (the request's data is
// available then); for row commands it returns 0. Issue panics with a
// *TimingError if the command is not ready — the controller must check
// CanIssue first; a violation is a scheduler bug, not a runtime
// condition.
func (c *Channel) Issue(cmd Command, now int64) (burstDone int64) {
	if !c.CanIssue(cmd, now) {
		panic(&TimingError{Kind: cmd.Kind, Bank: cmd.Bank, Cycle: now})
	}
	b := &c.banks[cmd.Bank]
	switch cmd.Kind {
	case CmdActivate:
		b.Activate(now, cmd.Row, c.timing)
		c.actTimes[c.actNext] = now
		c.actNext = (c.actNext + 1) % 4
		c.sharedEpoch++
		c.stats.Activates++
		return 0
	case CmdPrecharge:
		b.Precharge(now, c.timing)
		c.stats.Precharges++
		return 0
	default:
		burstDone = b.Column(now, cmd.Kind == CmdWrite, c.timing)
		c.dataBusFreeAt = burstDone
		if c.banksPerGroup > 0 {
			c.lastColAt = now
			c.lastColGroup = cmd.Bank / c.banksPerGroup
		}
		c.sharedEpoch++
		c.stats.BusyCycles += c.timing.BurstCycles
		if cmd.Kind == CmdWrite {
			c.writeRecoveryEnd = burstDone + c.timing.WTR
			c.stats.Writes++
		} else {
			c.readBurstEnd = burstDone
			c.stats.Reads++
		}
		return burstDone
	}
}

// ccd returns the CAS-to-CAS spacing the next column command to bank
// must keep from the channel's most recent column command: tCCD_L
// when both land in the same bank group, tCCD_S otherwise. Only
// meaningful when bank groups are enabled (banksPerGroup > 0).
func (c *Channel) ccd(bank int) int64 {
	if bank/c.banksPerGroup == c.lastColGroup {
		return c.timing.CCDL
	}
	return c.timing.CCDS
}

// RecordOutcome counts the row-buffer classification of a request at
// the moment the controller first schedules a command for it.
func (c *Channel) RecordOutcome(o RowBufferOutcome) {
	switch o {
	case RowHit:
		c.stats.RowHits++
	case RowClosed:
		c.stats.RowClosed++
	default:
		c.stats.RowConflict++
	}
}
