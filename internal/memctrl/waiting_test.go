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
// chosen candidate and the controller's View mask queries against an
// eager scan of the channel's pre-issue state, derived independently of
// the controller's scheduling memos and occupancy masks: the eligible
// requests come from the bank queues under a write eligibility
// recomputed from the queues and the channel's draining flag, every
// request's command, readiness and row state straight from the DRAM
// channel, and First from the checker's own record of which requests
// have had a command issued.
type waitingChecker struct {
	benchFRFCFS
	t   *testing.T
	c   *Controller
	rng *trace.Rand
	// started holds the IDs of requests a command has issued for,
	// recorded through CommandTrace (which fires after each issue).
	started map[uint64]bool
	// counts of what the checks covered, so the test can require that
	// every interesting shape occurred: issues with writes eligible on a
	// draining edge and with writes queued but held back, column and row
	// issues, first and later commands of a request, and queries that
	// found another thread.
	draining, heldBack, columns, rows, first, later int
	bankWaiters, bankReady, readyCol, older         int
}

// eagerReq is one eligible request of the eager scan.
type eagerReq struct {
	r     *Request
	cmd   dram.Command
	ready bool
}

func (w *waitingChecker) OnSchedule(now int64, chosen *Candidate) {
	ch, bank := chosen.Channel, chosen.Cmd.Bank
	reqs, draining, heldBack := w.eager(ch, now)
	if draining {
		w.draining++
	}
	if heldBack {
		w.heldBack++
	}
	if chosen.IsColumn() {
		w.columns++
	} else {
		w.rows++
	}
	if chosen.First {
		w.first++
	} else {
		w.later++
	}
	r, channel := chosen.Req, w.c.channels[ch]
	want := Candidate{
		Req: r, Cmd: channel.NextCommand(r.Loc.Bank, r.Loc.Row, r.IsWrite),
		Outcome: channel.Outcome(r.Loc.Bank, r.Loc.Row), Channel: r.Loc.Channel, First: !w.started[r.ID],
	}
	eligible := slices.ContainsFunc(reqs, func(e eagerReq) bool { return e.r == r })
	if canIssue := channel.CanIssue(chosen.Cmd, now); *chosen != want || !canIssue || !eligible {
		w.t.Fatalf("cycle %d: chosen %+v (can issue: %v, eligible: %v), the DRAM channel and issue record give %+v",
			now, *chosen, canIssue, eligible, want)
	}
	others := ^(uint64(1) << uint(chosen.Req.Thread))
	other := w.rng.Intn(w.c.banksPer)
	checks := []func(){
		func() {
			for _, b := range []int{bank, other} {
				var waiting, ready uint64
				for _, e := range reqs {
					if e.r.Loc.Bank == b {
						waiting |= 1 << uint(e.r.Thread)
						if e.ready {
							ready |= 1 << uint(e.r.Thread)
						}
					}
				}
				if gw, gr := w.c.BankWaiters(now, ch, b); gw != waiting || gr != ready {
					w.t.Fatalf("cycle %d: BankWaiters(ch %d, bank %d) = %b/%b, eager scan %b/%b",
						now, ch, b, gw, gr, waiting, ready)
				}
				if waiting&others != 0 {
					w.bankWaiters++
				}
				if ready&others != 0 {
					w.bankReady++
				}
			}
		},
		func() {
			var ready uint64
			for _, e := range reqs {
				if e.r.Loc.Bank != bank && e.cmd.Kind.IsColumn() && e.ready {
					ready |= 1 << uint(e.r.Thread)
				}
			}
			if got := w.c.ReadyColumnWaiters(now, ch, bank); got != ready {
				w.t.Fatalf("cycle %d: ReadyColumnWaiters(ch %d, except bank %d) = %b, eager scan %b", now, ch, bank, got, ready)
			}
			if ready&others != 0 {
				w.readyCol++
			}
		},
		func() {
			for _, b := range []int{bank, other} {
				want := false
				for _, e := range reqs {
					want = want || e.r.Loc.Bank == b && e.r.ID < chosen.Req.ID && !e.cmd.Kind.IsColumn()
				}
				if got := w.c.OlderRowWaiting(ch, b, chosen.Req.ID); got != want {
					w.t.Fatalf("cycle %d: OlderRowWaiting(ch %d, bank %d, id %d) = %v, eager scan %v", now, ch, b, chosen.Req.ID, got, want)
				}
				if want {
					w.older++
				}
			}
		},
	}
	// Each query refreshes the memos it visits, which could hide a stale
	// read in a query run after it, so the order rotates.
	first := w.rng.Intn(len(checks))
	for i := range checks {
		checks[(first+i)%len(checks)]()
	}
}

// eager lists the channel's eligible requests from the queues and the
// DRAM channel directly — each bank's reads, and its writes when the
// write-drain policy admits them — and reports whether writes are
// eligible because the channel drains, and whether queued writes are
// held back.
func (w *waitingChecker) eager(ch int, now int64) (reqs []eagerReq, draining, heldBack bool) {
	c := w.c
	channel := c.channels[ch]
	queues := c.queues[ch*c.banksPer : (ch+1)*c.banksPer]
	hasReads, hasWrites := false, false
	for _, q := range queues {
		hasReads = hasReads || len(q.reads) > 0
		hasWrites = hasWrites || len(q.writes) > 0
	}
	// scheduleChannel committed this edge's drain state before the issue.
	useWrites := (c.draining[ch] || !hasReads) && hasWrites
	for _, q := range queues {
		lists := [][]*Request{q.reads}
		if useWrites {
			lists = append(lists, q.writes)
		}
		for _, list := range lists {
			for _, r := range list {
				cmd := channel.NextCommand(r.Loc.Bank, r.Loc.Row, r.IsWrite)
				reqs = append(reqs, eagerReq{r: r, cmd: cmd, ready: channel.CanIssue(cmd, now)})
			}
		}
	}
	return reqs, c.draining[ch] && hasWrites, hasWrites && !useWrites
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

func (b *batchChecker) OnSchedule(now int64, chosen *Candidate) {
	b.waitingChecker.OnSchedule(now, chosen)
	if chosen.IsColumn() && b.marked[chosen.Req.ID] {
		delete(b.marked, chosen.Req.ID)
		b.remaining[chosen.Channel]--
	}
}

func (b *batchChecker) OrderEpoch() uint64 { return b.epoch }

// TestLazyWaitingSetIsExact drives a 2-channel controller through
// randomized read/write streams — row hits and conflicts, bursts deep
// enough to trip write draining, reservation-locked banks, memoized
// bank winners whose queues hold stale timing memos — and inside every
// OnSchedule requires the chosen candidate to be an eligible request
// whose command can issue, field for field as the DRAM channel and the
// issue record give it (First included), and the View queries
// OnSchedule reads (BankWaiters of the chosen bank and of a random one,
// ReadyColumnWaiters outside the chosen bank, OlderRowWaiting) to equal
// masks from an eager scan of the pre-issue queues and DRAM channel.
// The batch=true runs do so under batchChecker's changing order.
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
				if min(chk.draining, chk.heldBack, chk.columns, chk.rows, chk.first, chk.later,
					chk.bankWaiters, chk.bankReady, chk.readyCol, chk.older) < 100 {
					t.Fatalf("checks did not cover every shape: %d draining, %d held back, %d column and %d row issues, %d/%d first/later commands; another thread in %d bank, %d bank-ready, %d ready-column masks; %d older row waits",
						chk.draining, chk.heldBack, chk.columns, chk.rows, chk.first, chk.later,
						chk.bankWaiters, chk.bankReady, chk.readyCol, chk.older)
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
// conflicts and write-drain episodes all occur. Writes arrive only in
// the first half of every 8000 cycles, so between episodes the write
// buffer drains down and its last writes wait behind the reads.
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
		if now%8000 < 4000 && rng.Intn(60) == 0 {
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
