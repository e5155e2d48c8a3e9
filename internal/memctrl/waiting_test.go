package memctrl

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"stfm/internal/dram"
	"stfm/internal/trace"
)

// waitingChecker is an FR-FCFS policy whose OnSchedule checks the
// lazily built waiting set against an eager copy of the channel's
// pre-issue state, derived independently of the controller's scheduling
// memos: every candidate's command, readiness and row-buffer outcome
// come straight from the DRAM channel, and First from the checker's own
// record of which requests have had a command issued.
type waitingChecker struct {
	benchFRFCFS
	t   *testing.T
	c   *Controller
	rng *trace.Rand
	// started holds the IDs of requests a command has issued for,
	// recorded through CommandTrace (which fires after each issue).
	started map[uint64]bool
	// counts of what the checks covered, so the test can require that
	// every interesting shape occurred.
	bankReads, channelReads, withWrites, firstChosen, laterChosen int
}

func (w *waitingChecker) OnSchedule(now int64, chosen *Candidate, waiting *Waiting) {
	want, useWrites := w.eager(chosen.Channel, now)
	if useWrites {
		w.withWrites++
	}
	if chosen.First {
		w.firstChosen++
	} else {
		w.laterChosen++
	}
	// Read the set in a random order, mixing bank and channel views
	// and repeating some, so both the cached and the rebuilt paths are
	// compared.
	for n := 1 + w.rng.Intn(4); n > 0; n-- {
		if w.rng.Intn(3) == 0 {
			w.channelReads++
			w.compare(now, "Channel()", waiting.Channel(), want)
			continue
		}
		b := chosen.Cmd.Bank
		if w.rng.Intn(2) == 0 {
			b = w.rng.Intn(w.c.banksPer)
		}
		w.bankReads++
		var bank []Candidate
		for _, cd := range want {
			if cd.Cmd.Bank == b {
				bank = append(bank, cd)
			}
		}
		w.compare(now, fmt.Sprintf("Bank(%d)", b), waiting.Bank(b), bank)
	}
}

// eager builds the channel's waiting set from the queues and the DRAM
// channel directly: each bank's reads, and its writes when the
// channel's write-drain eligibility admits them.
func (w *waitingChecker) eager(ch int, now int64) ([]Candidate, bool) {
	c := w.c
	_, useWrites, _ := c.eligibility(ch)
	channel := c.channels[ch]
	var out []Candidate
	for b := 0; b < c.banksPer; b++ {
		q := &c.queues[ch*c.banksPer+b]
		lists := [][]*Request{q.reads}
		if useWrites {
			lists = append(lists, q.writes)
		}
		for _, list := range lists {
			for _, r := range list {
				cmd := channel.NextCommand(r.Loc.Bank, r.Loc.Row, r.IsWrite)
				out = append(out, Candidate{
					Req: r, Cmd: cmd, Outcome: channel.Outcome(r.Loc.Bank, r.Loc.Row), Channel: ch,
					First: !w.started[r.ID], Ready: now >= channel.CommandReadyAt(cmd),
				})
			}
		}
	}
	return out, useWrites
}

func (w *waitingChecker) compare(now int64, view string, got, want []Candidate) {
	w.t.Helper()
	got = append([]Candidate(nil), got...)
	for _, s := range [][]Candidate{got, want} {
		sort.Slice(s, func(i, j int) bool { return s[i].Req.ID < s[j].Req.ID })
	}
	if len(got) != len(want) {
		w.t.Fatalf("cycle %d: %s has %d candidates, the eager pre-issue set %d", now, view, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			w.t.Fatalf("cycle %d: %s candidate %d = %+v, eager pre-issue set has %+v", now, view, i, got[i], want[i])
		}
	}
}

// batchChecker runs the same checks under an order that changes
// mid-run, the way PAR-BS's batches change it: on every edge on which a
// channel's batch has drained, BeginCycle reads the channel's queued
// reads through AppendQueuedReads, requires them to equal the bank
// queues' reads, marks a random eighth and bumps the order epoch; Less
// puts marked requests first, and a mark leaves with its request's
// column access.
type batchChecker struct {
	*waitingChecker
	marked    map[uint64]bool
	remaining []int
	epoch     uint64
}

func (b *batchChecker) BeginCycle(now int64) {
	c := b.c
	for ch, n := range b.remaining {
		if n > 0 {
			continue
		}
		got := c.AppendQueuedReads(nil, ch)
		var want []*Request
		for bank := 0; bank < c.banksPer; bank++ {
			want = append(want, c.queues[ch*c.banksPer+bank].reads...)
		}
		for _, s := range [][]*Request{got, want} {
			sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
		}
		if !slices.Equal(got, want) {
			b.t.Fatalf("cycle %d: channel %d AppendQueuedReads returned %d reads, not the %d its bank queues hold", now, ch, len(got), len(want))
		}
		for _, r := range got {
			if b.rng.Intn(8) == 0 {
				b.marked[r.ID] = true
				b.remaining[ch]++
			}
		}
		if b.remaining[ch] > 0 {
			b.epoch++
		}
	}
}

func (b *batchChecker) Less(x, y *Candidate) bool {
	if mx, my := b.marked[x.Req.ID], b.marked[y.Req.ID]; mx != my {
		return mx
	}
	return b.benchFRFCFS.Less(x, y)
}

func (b *batchChecker) OnSchedule(now int64, chosen *Candidate, waiting *Waiting) {
	b.waitingChecker.OnSchedule(now, chosen, waiting)
	if chosen.IsColumn() && b.marked[chosen.Req.ID] {
		delete(b.marked, chosen.Req.ID)
		b.remaining[chosen.Channel]--
	}
}

func (b *batchChecker) OrderEpoch() uint64 { return b.epoch }

// TestLazyWaitingSetIsExact drives a 2-channel controller through
// randomized read/write streams — row hits and conflicts, bursts deep
// enough to trip write draining, reservation-locked banks, memoized
// bank winners — and inside every OnSchedule requires Waiting.Bank(b)
// and Waiting.Channel() to equal the eager pre-issue waiting set field
// for field, the chosen request's First flag included. The batch=true
// runs do so under batchChecker's changing order.
func TestLazyWaitingSetIsExact(t *testing.T) {
	for _, batch := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("batch=%v/seed=%d", batch, seed), func(t *testing.T) {
				c := newEdgeController(t, 4, 2)
				chk := &waitingChecker{t: t, c: c, rng: trace.NewRand(seed), started: make(map[uint64]bool)}
				var bchk *batchChecker
				if batch {
					bchk = &batchChecker{waitingChecker: chk, marked: make(map[uint64]bool), remaining: make([]int, 2)}
					c.SetPolicy(bchk)
				} else {
					c.SetPolicy(chk)
				}
				c.CommandTrace = func(_ int64, _ int, _ dram.Command, r *Request) { chk.started[r.ID] = true }
				driveRandom(c, trace.NewRand(seed+100), 60_000)
				if err := c.CheckInvariants(60_000); err != nil {
					t.Fatal(err)
				}
				if chk.bankReads < 100 || chk.channelReads < 100 || chk.withWrites == 0 ||
					chk.firstChosen == 0 || chk.laterChosen == 0 {
					t.Fatalf("checks did not cover every shape: %d bank reads, %d channel reads, %d with writes eligible, %d/%d first/later chosen",
						chk.bankReads, chk.channelReads, chk.withWrites, chk.firstChosen, chk.laterChosen)
				}
				if batch && bchk.epoch < 10 {
					t.Fatalf("only %d batches formed", bchk.epoch)
				}
			})
		}
	}
}

// driveRandom ticks c through the given number of CPU cycles, enqueuing
// random reads and writes over a few rows per bank so row hits,
// conflicts and write-drain episodes all occur.
func driveRandom(c *Controller, rng *trace.Rand, cycles int64) {
	g := c.cfg.Geometry
	loc := func() uint64 {
		return g.LineAddr(dram.Location{
			Channel: rng.Intn(g.Channels),
			Bank:    rng.Intn(g.BanksPerChannel),
			Row:     rng.Intn(4),
			Column:  rng.Intn(64),
		})
	}
	for now := int64(0); now < cycles; now++ {
		if rng.Intn(40) == 0 {
			for n := rng.Intn(8); n > 0 && c.CanAcceptRead(); n-- {
				c.EnqueueRead(now, rng.Intn(c.cfg.NumThreads), loc(), 0)
			}
		}
		if rng.Intn(60) == 0 {
			for n := rng.Intn(12); n > 0 && c.CanAcceptWrite(); n-- {
				c.EnqueueWrite(now, rng.Intn(c.cfg.NumThreads), loc())
			}
		}
		c.Tick(now)
	}
}

// TestCheckInvariantsCatchesLiveRequestOnFreeList plants a live
// request on the free list — as a double completion or an early
// recycle would — and requires CheckInvariants to report it, for each
// structure that holds live requests.
func TestCheckInvariantsCatchesLiveRequestOnFreeList(t *testing.T) {
	c := newEdgeController(t, 2, 1)
	fillQueues(c, 0, 2)
	// Run until a request is in flight and a bank holds a reservation.
	now := int64(0)
	for i := 0; i < 10_000 && (len(c.inFlight) == 0 || reservedRequest(c) == nil); i++ {
		c.Tick(now)
		now = c.NextTickAt()
	}
	if len(c.inFlight) == 0 || reservedRequest(c) == nil {
		t.Fatal("controller never had a request in flight and a reservation at once")
	}
	if err := c.CheckInvariants(now); err != nil {
		t.Fatalf("healthy controller fails its invariants: %v", err)
	}
	for _, tc := range []struct {
		name string
		live *Request
	}{
		{"queued", c.queues[0].reads[0]},
		{"in flight", c.inFlight[0]},
		{"reserved", reservedRequest(c)},
	} {
		saved := c.free
		c.free = append(append([]*Request(nil), saved...), tc.live)
		err := c.CheckInvariants(now)
		c.free = saved
		if err == nil || !strings.Contains(err.Error(), "free list") {
			t.Errorf("%s request on the free list: CheckInvariants = %v, want a free-list error", tc.name, err)
		}
	}
	if len(c.free) > 0 {
		saved := c.free
		c.free = append(append([]*Request(nil), saved...), saved[0])
		if err := c.CheckInvariants(now); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("request on the free list twice: CheckInvariants = %v, want an error", err)
		}
		c.free = saved
	}
}

func reservedRequest(c *Controller) *Request {
	for ch := range c.reserved {
		for _, r := range c.reserved[ch] {
			if r != nil {
				return r
			}
		}
	}
	return nil
}
