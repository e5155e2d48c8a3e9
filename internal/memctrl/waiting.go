package memctrl

// Waiting is a channel's waiting set as of an issue edge, handed to
// Policy.OnSchedule. It is built lazily: Bank and Channel copy the
// candidates out of the controller's queues on first call, so a policy
// that reads nothing (FR-FCFS, FCFS) costs nothing, and one that reads
// only the scheduled bank (FR-FCFS+Cap, NFQ) copies only that bank.
//
// The set is the pre-issue one, field for field: OnSchedule runs before
// the chosen command reaches the DRAM channel and before the request
// leaves its queue, so every candidate — the chosen one included, with
// its First flag as arbitration saw it — equals what an eager copy taken
// at arbitration would hold. A Waiting and the slices it returns are
// valid only during the OnSchedule call.
type Waiting struct {
	c         *Controller
	ch        int
	now       int64
	useWrites bool
	chosen    *Candidate
	// all is the channel's set once built, or the set NewWaiting
	// wrapped.
	all     []Candidate
	haveAll bool
	// bank is the bank whose candidates bankSet holds (-1: none yet).
	bank    int
	bankSet []Candidate
}

// NewWaiting wraps an already built waiting set, for driving a policy's
// OnSchedule outside a controller (tests, tools). Bank filters it by
// the candidates' bank.
func NewWaiting(all []Candidate) *Waiting {
	return &Waiting{all: all, haveAll: true, bank: -1}
}

// reset rearms the controller's Waiting for one issue on channel ch.
func (w *Waiting) reset(ch int, now int64, useWrites bool, chosen *Candidate) *Waiting {
	w.ch, w.now, w.useWrites, w.chosen = ch, now, useWrites, chosen
	w.all, w.haveAll = nil, false
	w.bank = -1
	return w
}

// Channel returns every waiting candidate on the channel: each bank's
// reads, and its writes when writes are eligible this edge.
func (w *Waiting) Channel() []Candidate {
	if !w.haveAll {
		all := w.c.scratch[:0]
		for b := 0; b < w.c.banksPer; b++ {
			all = w.appendBank(all, b)
		}
		w.c.scratch = all[:0]
		w.all, w.haveAll = all, true
	}
	return w.all
}

// Bank returns the waiting candidates of one bank of the channel. The
// slice is reused by a later Bank call for another bank.
func (w *Waiting) Bank(b int) []Candidate {
	if w.bank == b {
		return w.bankSet
	}
	var set []Candidate
	if w.c != nil {
		set = w.c.bankScratch[:0]
	}
	if w.haveAll {
		for i := range w.all {
			if w.all[i].Cmd.Bank == b {
				set = append(set, w.all[i])
			}
		}
	} else {
		set = w.appendBank(set, b)
	}
	if w.c != nil {
		w.c.bankScratch = set[:0]
	}
	w.bank, w.bankSet = b, set
	return set
}

// appendBank appends bank b's candidates to dst. Each request's timing
// memo is revalidated first (on a memo-hit edge only the bank winners
// were refreshed during arbitration), so the candidates are exact; the
// chosen request is represented by the chosen candidate itself, whose
// First flag predates the issue's first-command bookkeeping.
func (w *Waiting) appendBank(dst []Candidate, b int) []Candidate {
	c := w.c
	channel := c.channels[w.ch]
	q := &c.queues[w.ch*c.banksPer+b]
	epoch := channel.BankEpoch(b)
	for _, list := range q.eligible(w.useWrites) {
		for _, r := range list {
			if r == w.chosen.Req {
				dst = append(dst, *w.chosen)
				continue
			}
			refreshMemo(channel, r, epoch)
			dst = append(dst, candidateFor(r, w.ch, w.now))
		}
	}
	return dst
}
