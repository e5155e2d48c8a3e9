package memctrl

import (
	"fmt"
	"math/bits"

	"stfm/internal/dram"
	"stfm/internal/telemetry"
)

// Config parameterizes a Controller. The zero value is not usable; use
// DefaultConfig as a starting point.
type Config struct {
	// Geometry fixes the DRAM organization (channels, banks, row-buffer
	// size); Timing fixes the command timing constraints. Together they
	// are Table 5's memory system.
	Geometry dram.Geometry
	Timing   dram.Timing // see Geometry
	// NumThreads is the number of hardware threads (cores) sharing the
	// controller.
	NumThreads int
	// ReadBufferCap bounds the queued (not yet data-bursting) read
	// requests across all channels — the paper's 128-entry request
	// buffer.
	ReadBufferCap int
	// WriteBufferCap bounds buffered writebacks — the paper's 32-entry
	// write data buffer.
	WriteBufferCap int
	// WriteDrainHigh and WriteDrainLow are the occupancy watermarks that
	// start and stop opportunistic write draining on a channel.
	WriteDrainHigh int
	WriteDrainLow  int // see WriteDrainHigh
}

// DefaultConfig returns the paper's Table 2 controller configuration
// for the given thread and channel counts.
func DefaultConfig(numThreads, channels int) Config {
	return Config{
		Geometry:       dram.DefaultGeometry(channels),
		Timing:         dram.DefaultTiming(),
		NumThreads:     numThreads,
		ReadBufferCap:  128,
		WriteBufferCap: 32,
		WriteDrainHigh: 24,
		WriteDrainLow:  8,
	}
}

// ThreadStats aggregates per-thread service statistics for metrics and
// calibration.
type ThreadStats struct {
	ReadsServiced    int64 // completed demand reads
	WritesServiced   int64 // completed writebacks
	TotalReadLatency int64 // sum over reads of (complete - arrival) CPU cycles
	RowHits          int64 // read requests first scheduled as row hits
	RowClosed        int64 // reads that found their bank's row buffer closed
	RowConflicts     int64 // reads that found a different row open (conflict)
	// ReadLatency is the distribution of read round trips; starvation
	// under unfair scheduling shows up in its tail.
	ReadLatency LatencyHistogram
}

// RowHitRate returns the thread's row-buffer hit rate over serviced
// reads.
func (s ThreadStats) RowHitRate() float64 {
	total := s.RowHits + s.RowClosed + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// AvgReadLatency returns the mean read round-trip latency in CPU
// cycles.
func (s ThreadStats) AvgReadLatency() float64 {
	if s.ReadsServiced == 0 {
		return 0
	}
	return float64(s.TotalReadLatency) / float64(s.ReadsServiced)
}

// bankQueue holds the requests waiting for one (channel, bank) pair,
// reads and writes separately. Requests are indexed here at enqueue
// time so per-bank arbitration scans only the bank's own queue. Order
// within the slices is not meaningful; arrival order lives in
// Request.ID (every policy's comparator is a total order ending in the
// ID tie-break, so arbitration is scan-order independent — pinned by
// TestPolicySelectionIsScanOrderIndependent).
type bankQueue struct {
	reads  []*Request
	writes []*Request
	// ver counts membership changes (enqueue or removal) to either
	// slice. Together with the bank's state epoch and the policy's
	// OrderEpoch it keys the per-bank winner memo: while all three are
	// unchanged, last edge's level-1 tournament outcome still holds.
	// Starts at 1 so a zero-valued memo never validates.
	ver uint64
}

// eligible returns the queue's requests eligible for arbitration: its
// reads, and its writes when writes are eligible.
func (q *bankQueue) eligible(useWrites bool) [2][]*Request {
	if useWrites {
		return [2][]*Request{q.reads, q.writes}
	}
	return [2][]*Request{q.reads}
}

// bankMemo caches one bank's level-1 arbitration outcome. The winner is
// reusable while (a) the queue membership is unchanged (qver), (b) the
// bank's own state is unchanged (bankEp — the bank-local epoch, not the
// combined BankEpoch: shared-constraint changes move readiness times but
// never the winner, since level-1 arbitration ignores readiness and
// NextCommand depends only on bank row state), (c) the policy's ordering
// is unchanged (orderEp), and (d) the read/write eligibility inputs are
// unchanged (draining, useWrites — they depend on channel- and
// global-level occupancy the bank-local keys don't see). A read enqueued
// while the memo and its channel's horizon are both valid is folded in
// (foldRead) rather than invalidating them.
type bankMemo struct {
	winner    *Request
	qver      uint64
	bankEp    uint64
	orderEp   uint64
	draining  bool
	useWrites bool
}

// channelHorizon is a channel's cached no-issue horizon: the first DRAM
// edge at which one of its banks' level-1 winners can issue (at == 0:
// none cached), valid while the policy's order epoch still equals
// orderEp.
type channelHorizon struct {
	at      int64
	orderEp uint64
}

// Controller is the DRAM memory controller: it buffers requests from
// all cores, translates them to DRAM commands, and issues at most one
// ready command per channel per DRAM cycle, chosen by the configured
// Policy.
type Controller struct {
	cfg      Config
	channels []*dram.Channel
	policy   Policy
	// eventPol caches the policy's EventPolicy assertion, resolved once
	// in SetPolicy so the per-edge path does not repeat it.
	eventPol EventPolicy

	// banksPer caches Geometry.BanksPerChannel; queues is the request
	// index, addressed queues[ch*banksPer+bank], and memo the per-bank
	// winner cache with the same addressing.
	banksPer int
	queues   []bankQueue
	memo     []bankMemo
	// readMask/writeMask hold one bit per bank of the channel whose read
	// (write) queue is non-empty, so arbitration visits only occupied
	// banks and an empty channel is recognized in O(1)
	// (Geometry.Validate caps BanksPerChannel at 64).
	readMask  []uint64
	writeMask []uint64
	// chHorizon memoizes a channel's no-issue scheduling horizon: when
	// scheduleChannel finds no bank's level-1 winner ready, nothing on
	// the channel can issue before the earliest winner's ready edge, so
	// the per-edge rescan is skipped until then. Level-1 arbitration
	// ignores readiness, so the winners can change only through a queue
	// change, a bank-state change, an eligibility change or an order
	// epoch bump. The first three clear the cache: a command issue on
	// the channel, a refresh, a write enqueue or removal (the global
	// write-buffer occupancy feeds every channel's drain hysteresis),
	// and a read enqueue that cannot be folded (foldRead); the fourth
	// makes Tick ignore a horizon stored under an older epoch. Between
	// invalidations skipped edges compute nothing a scan would.
	chHorizon []channelHorizon
	// inFlight holds requests whose column access has issued and whose
	// completion time is pending, across all channels.
	inFlight []*Request
	// due is completeFinished's scratch for the requests completing on
	// the current edge (handed to their consumers in deterministic
	// CompleteAt-then-ID order).
	due []*Request
	// free holds retired requests for newRequest to reuse, so the
	// steady-state enqueue path allocates nothing. A request joins it
	// only after completeFinished has handed it to its consumer; nothing
	// else holds a *Request past completion (CheckInvariants verifies
	// the free list is disjoint from every live structure).
	free []*Request
	// consumers[thread] receives the thread's finished reads.
	consumers []ReadConsumer

	nextID       uint64
	queuedReads  int
	queuedWrites int
	// enqueuedReads/enqueuedWrites count every accepted request over
	// the controller's lifetime; with the serviced counters and the
	// live queue/in-flight occupancy they form the request-conservation
	// identity CheckInvariants verifies.
	enqueuedReads  int64
	enqueuedWrites int64
	draining       []bool
	queuedPerThr   []int // queued read requests per thread
	// queuedBank[thread][channel*banks+bank] counts the thread's
	// waiting (not yet column-issued) reads per bank; queuedBanks[t] is
	// the number of banks with a non-zero count — the paper's
	// BankWaitingParallelism register, maintained incrementally so the
	// View query is O(1) instead of a scan over every queued read.
	queuedBank  [][]int16
	queuedBanks []int
	// inServiceBank[thread][channel*banks+bank] counts the thread's
	// started-but-incomplete reads per bank; inServiceBanks[thread] is
	// the number of banks with a non-zero count (the paper's
	// BankAccessParallelism).
	inServiceBank  [][]int16
	inServiceBanks []int

	threadStats []ThreadStats
	// work counts scheduling work since construction (Work).
	work Work
	// bankCand[b] holds bank b's level-1 winner once it is ready
	// (arbitration tracks which entries are current in a ready mask),
	// and challenger is the stack-avoiding slot candidates are staged in
	// before comparison (policies receive *Candidate, and a pointer into
	// controller-owned memory keeps the edge path free of escape-analysis
	// heap allocations). Channels are scheduled one at a time, so one set
	// serves them all.
	bankCand   []Candidate
	challenger Candidate
	// reserved[ch][bank] is the request whose activate opened the
	// bank's current row and whose column access has not issued yet.
	// Until that column access issues, the bank is not re-arbitrated
	// to a conflicting request: closing a row that was opened but
	// never used would waste the full tRCD+tRAS and allows priority
	// ping-pong livelock between threads under slowdown-driven
	// policies.
	reserved [][]*Request

	// CommandTrace, if non-nil, receives every issued command (a test
	// hook). req is valid only during the call: the controller recycles
	// a request once it completes, so the trace must copy what it needs
	// rather than keep the pointer.
	CommandTrace func(now int64, ch int, cmd dram.Command, req *Request)

	// trace receives request lifecycle and command events when
	// telemetry is attached (nil otherwise — the hot paths pay exactly
	// one nil check).
	trace *telemetry.Tracer
	// bankHits/bankClosed/bankConflicts count first-schedule row-buffer
	// outcomes per bank (indexed channel*banks+bank) for the interval
	// sampler; allocated only by AttachTelemetry.
	bankHits      []int64
	bankClosed    []int64
	bankConflicts []int64

	// nextWake is the earliest CPU cycle at which the controller can do
	// observable work: always a DRAM clock edge (or dram.Horizon when
	// fully idle). Tick recomputes it on every edge it processes;
	// EnqueueRead/EnqueueWrite pull it forward to the next edge
	// (enqueues happen mid-cycle, after this cycle's edge work ran) so
	// new arrivals are scheduled exactly when a dense-ticked controller
	// would first see them — a folded read only as far as its channel's
	// horizon, before which nothing it changed can issue.
	nextWake int64
}

// NewController builds a controller over freshly initialized DRAM
// channels. policy may be nil at construction (STFM needs the
// controller's View to build itself); it must then be installed with
// SetPolicy before the first Tick.
func NewController(cfg Config, policy Policy) (*Controller, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	// Bank groups must tile the channel's banks exactly, or the
	// tCCD_L/tCCD_S group classification in dram.Channel is undefined.
	if bg := cfg.Timing.BankGroups; bg > 0 &&
		(bg > cfg.Geometry.BanksPerChannel || cfg.Geometry.BanksPerChannel%bg != 0) {
		return nil, fmt.Errorf("memctrl: Timing.BankGroups (%d) must evenly divide Geometry.BanksPerChannel (%d)",
			bg, cfg.Geometry.BanksPerChannel)
	}
	if cfg.NumThreads <= 0 {
		return nil, fmt.Errorf("memctrl: NumThreads must be positive, got %d", cfg.NumThreads)
	}
	if cfg.ReadBufferCap <= 0 || cfg.WriteBufferCap <= 0 {
		return nil, fmt.Errorf("memctrl: buffer capacities must be positive")
	}
	banks := cfg.Geometry.BanksPerChannel
	// Every live-queue container is sized for its worst case up front so
	// the edge path never grows a slice: the whole per-edge scheduling
	// loop is allocation-free (asserted by TestEdgePathZeroAllocs), and
	// with the free list, so is the enqueue path once warm.
	bufCap := cfg.ReadBufferCap + cfg.WriteBufferCap
	c := &Controller{
		cfg:            cfg,
		banksPer:       banks,
		queues:         make([]bankQueue, cfg.Geometry.Channels*banks),
		memo:           make([]bankMemo, cfg.Geometry.Channels*banks),
		readMask:       make([]uint64, cfg.Geometry.Channels),
		writeMask:      make([]uint64, cfg.Geometry.Channels),
		chHorizon:      make([]channelHorizon, cfg.Geometry.Channels),
		inFlight:       make([]*Request, 0, bufCap),
		due:            make([]*Request, 0, bufCap),
		free:           make([]*Request, 0, bufCap),
		consumers:      make([]ReadConsumer, cfg.NumThreads),
		draining:       make([]bool, cfg.Geometry.Channels),
		queuedPerThr:   make([]int, cfg.NumThreads),
		queuedBank:     make([][]int16, cfg.NumThreads),
		queuedBanks:    make([]int, cfg.NumThreads),
		inServiceBank:  make([][]int16, cfg.NumThreads),
		inServiceBanks: make([]int, cfg.NumThreads),
		threadStats:    make([]ThreadStats, cfg.NumThreads),
		bankCand:       make([]Candidate, banks),
	}
	c.SetPolicy(policy)
	for i := range c.inServiceBank {
		c.inServiceBank[i] = make([]int16, cfg.Geometry.Channels*banks)
		c.queuedBank[i] = make([]int16, cfg.Geometry.Channels*banks)
	}
	for i := range c.queues {
		c.queues[i].reads = make([]*Request, 0, cfg.ReadBufferCap)
		c.queues[i].writes = make([]*Request, 0, cfg.WriteBufferCap)
		c.queues[i].ver = 1
	}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		c.channels = append(c.channels, dram.NewChannel(banks, cfg.Timing))
		c.reserved = append(c.reserved, make([]*Request, banks))
	}
	return c, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetPolicy installs the scheduling policy. It must be called before
// the first Tick when the controller was constructed without one.
func (c *Controller) SetPolicy(p Policy) {
	c.policy = p
	c.eventPol, _ = p.(EventPolicy)
}

// SwitchPolicy replaces the scheduling policy mid-run (a fork-mode
// run's switch to its target, sim.Config.ForkAtCycle) and normalizes
// every piece of cached scheduling state so the switch is
// schedule-deterministic: from the switch edge on, the new policy
// decides exactly as it would on a controller whose caches start empty,
// such as one restored from a checkpoint taken at the switch.
//
// Three caches could otherwise leak decisions across the switch:
//
//   - the per-bank winner memos, which are keyed on the OLD policy's
//     OrderEpoch — a fresh policy's epoch may collide with a stale one
//     (both start at zero), validating a winner the new policy would
//     never pick;
//   - the per-channel no-issue horizons, computed under the old
//     policy's candidate ordering;
//   - nextWake, which may sit beyond an edge the new policy (e.g. an
//     EventPolicy with nearer events) must observe.
//
// SwitchPolicy clears the first two and pulls nextWake to the DRAM
// edge at-or-after now — at-or-after, not strictly-after, so that when
// the switch lands exactly on an unprocessed edge both dense-tick and
// event-stepped runs process that edge under the new policy.
func (c *Controller) SwitchPolicy(now int64, p Policy) {
	c.SetPolicy(p)
	for i := range c.memo {
		c.memo[i] = bankMemo{}
	}
	c.clearHorizons()
	if e := c.edgeCeil(now); e < c.nextWake {
		c.nextWake = e
	}
}

// Policy returns the installed scheduling policy.
func (c *Controller) Policy() Policy { return c.policy }

// Channel returns the DRAM channel with the given index (for
// inspection by tests and policies).
func (c *Controller) Channel(i int) *dram.Channel { return c.channels[i] }

// ThreadStats returns a copy of the per-thread service statistics.
func (c *Controller) ThreadStats(thread int) ThreadStats { return c.threadStats[thread] }

// AttachTelemetry switches the controller's observability layer on:
// request lifecycle and command events go to tr (which may be nil to
// collect only counters), and per-bank row-buffer outcome counters are
// allocated for the interval sampler. Call before the first Tick; with
// no attach, every instrumentation point reduces to a nil check.
func (c *Controller) AttachTelemetry(tr *telemetry.Tracer) {
	c.trace = tr
	n := c.cfg.Geometry.Channels * c.banksPer
	c.bankHits = make([]int64, n)
	c.bankClosed = make([]int64, n)
	c.bankConflicts = make([]int64, n)
}

// BankOutcomes returns copies of the cumulative per-bank first-schedule
// row-buffer outcome counts (indexed channel*banksPerChannel+bank), or
// nils when telemetry was never attached.
func (c *Controller) BankOutcomes() (hits, closed, conflicts []int64) {
	if c.bankHits == nil {
		return nil, nil, nil
	}
	return append([]int64(nil), c.bankHits...),
		append([]int64(nil), c.bankClosed...),
		append([]int64(nil), c.bankConflicts...)
}

// QueuedReads returns the number of read requests waiting in the
// request buffer (column access not yet issued).
func (c *Controller) QueuedReads() int { return c.queuedReads }

// QueuedWrites returns the number of buffered writebacks.
func (c *Controller) QueuedWrites() int { return c.queuedWrites }

// CanAcceptRead reports whether the read request buffer has space.
func (c *Controller) CanAcceptRead() bool { return c.queuedReads < c.cfg.ReadBufferCap }

// CanAcceptWrite reports whether the write buffer has space.
func (c *Controller) CanAcceptWrite() bool { return c.queuedWrites < c.cfg.WriteBufferCap }

// ReadConsumer receives a thread's finished reads: the direct DRAM
// port in direct mode, the thread's cache.Hierarchy in cache mode.
type ReadConsumer interface {
	// ReadDone is called once per read when its full round trip
	// finishes, at the completion cycle now, in the controller's
	// deterministic completion order. r is valid only during the call:
	// the controller recycles it for a later request once ReadDone
	// returns, so the consumer must read r.Tag (or r.LineAddr) and not
	// keep the pointer.
	ReadDone(now int64, r *Request)
}

// SetReadConsumer installs the consumer of thread's finished reads.
// It is installed once, before the thread's first read; reads of a
// thread without a consumer retire silently.
func (c *Controller) SetReadConsumer(thread int, rc ReadConsumer) { c.consumers[thread] = rc }

// EnqueueRead adds a demand read for lineAddr from the given thread.
// tag travels with the request and comes back to the thread's
// ReadConsumer when the full round trip finishes. It returns false,
// without side effects, if the request buffer is full.
func (c *Controller) EnqueueRead(now int64, thread int, lineAddr uint64, tag int64) bool {
	if !c.CanAcceptRead() {
		return false
	}
	r := c.newRequest(now, thread, lineAddr, false)
	r.Tag = tag
	ch := r.Loc.Channel
	idx := ch*c.banksPer + r.Loc.Bank
	q := &c.queues[idx]
	q.reads = append(q.reads, r)
	q.ver++
	wake := c.nextEdge(now)
	if c.foldRead(now, r, q) {
		wake = max(wake, c.chHorizon[ch].at)
	} else {
		c.chHorizon[ch] = channelHorizon{}
	}
	c.readMask[ch] |= 1 << uint(r.Loc.Bank)
	c.queuedReads++
	c.enqueuedReads++
	c.queuedPerThr[thread]++
	if c.queuedBank[thread][idx] == 0 {
		c.queuedBanks[thread]++
	}
	c.queuedBank[thread][idx]++
	if c.trace != nil {
		c.traceLifecycle(telemetry.EvEnqueue, now, r)
	}
	c.nextWake = min(c.nextWake, wake)
	return true
}

// EnqueueWrite buffers a writeback of lineAddr on behalf of thread. It
// returns false if the write buffer is full.
func (c *Controller) EnqueueWrite(now int64, thread int, lineAddr uint64) bool {
	if !c.CanAcceptWrite() {
		return false
	}
	r := c.newRequest(now, thread, lineAddr, true)
	q := &c.queues[r.Loc.Channel*c.banksPer+r.Loc.Bank]
	q.writes = append(q.writes, r)
	q.ver++
	c.writeMask[r.Loc.Channel] |= 1 << uint(r.Loc.Bank)
	c.queuedWrites++
	c.enqueuedWrites++
	// The write-buffer occupancy feeds every channel's drain
	// hysteresis, so a change invalidates all cached horizons.
	c.clearHorizons()
	if c.trace != nil {
		c.traceLifecycle(telemetry.EvEnqueue, now, r)
	}
	c.nextWake = min(c.nextWake, c.nextEdge(now))
	return true
}

// foldRead folds read r, just appended to bank queue q, into the bank's
// winner memo and the channel's horizon instead of invalidating them,
// and reports whether it did. That needs the channel to hold a horizon
// under the current order epoch (so nothing about the channel changed
// since its last scan) and the bank's memo to be valid under the same
// keys a scan would check. The bank's fresh winner is then the better
// of the memoized one and r, since a tournament is a maximum under a
// total order; a reserved winner keeps the bank outright. If r wins,
// the horizon is lowered to r's ready edge (the other winners are
// unchanged, so the horizon stays a lower bound).
//
// A read to a channel with no reads flips its write eligibility, so it
// does not fold.
func (c *Controller) foldRead(now int64, r *Request, q *bankQueue) bool {
	ch, b := r.Loc.Channel, r.Loc.Bank
	h := &c.chHorizon[ch]
	if c.readMask[ch] == 0 || h.at == 0 || h.orderEp != c.policy.OrderEpoch() {
		return false
	}
	channel := c.channels[ch]
	draining, useWrites, _ := c.eligibility(ch)
	m := &c.memo[ch*c.banksPer+b]
	if m.qver != q.ver-1 || m.bankEp != channel.Bank(b).Epoch() || m.orderEp != h.orderEp ||
		m.draining != draining || m.useWrites != useWrites {
		return false
	}
	if w := m.winner; w != c.reserved[ch][b] {
		epoch := channel.BankEpoch(b)
		refreshMemo(channel, r, epoch)
		refreshMemo(channel, w, epoch)
		c.challenger = candidateFor(r, ch)
		c.bankCand[b] = candidateFor(w, ch)
		if c.better(&c.challenger, &c.bankCand[b], draining) {
			m.winner = r
			h.at = min(h.at, c.edgeCeil(max(now, r.cacheReadyAt)))
		}
	}
	m.qver = q.ver
	c.work.EnqueueFolds++
	return true
}

// clearHorizons drops every channel's cached horizon.
func (c *Controller) clearHorizons() {
	for i := range c.chHorizon {
		c.chHorizon[i] = channelHorizon{}
	}
}

// newRequest returns a fresh request, reusing a retired one from the
// free list when there is one. Every field is overwritten, so a
// recycled request carries nothing of its previous life (its timing
// memo restarts invalid).
func (c *Controller) newRequest(now int64, thread int, lineAddr uint64, isWrite bool) *Request {
	c.nextID++
	var r *Request
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		r = new(Request)
	}
	*r = Request{
		ID:       c.nextID,
		Thread:   thread,
		LineAddr: lineAddr,
		Loc:      c.cfg.Geometry.Map(lineAddr),
		IsWrite:  isWrite,
		Arrival:  now,
	}
	return r
}

// Tick advances the controller to CPU cycle now. The controller acts
// only on DRAM command-clock edges (every CPUCyclesPerDRAMCycle CPU
// cycles); calling it every CPU cycle is fine and cheap. It returns
// the next CPU cycle at which the controller can do observable work
// (always a DRAM edge, or dram.Horizon when idle): event-driven
// callers skip calls before then, dense callers ignore the value.
func (c *Controller) Tick(now int64) int64 {
	if now%c.cfg.Timing.CPUCyclesPerDRAMCycle != 0 {
		return c.nextWake
	}
	c.work.EdgesTicked++
	c.completeFinished(now)
	c.policy.BeginCycle(now)
	next := int64(dram.Horizon)
	for ch := range c.channels {
		if c.channels[ch].MaybeRefresh(now) {
			c.chHorizon[ch] = channelHorizon{}
		}
		// A cached horizon still in the future, stored under the current
		// order epoch, means the channel's state has not changed since
		// the last scan and no bank's winner can issue yet: skip the
		// rescan outright. The epoch is re-read per channel because an
		// issue on an earlier channel may have bumped it.
		orderEp := c.policy.OrderEpoch()
		if h := c.chHorizon[ch]; now < h.at && h.orderEp == orderEp {
			c.work.HorizonSkips++
			next = min(next, h.at)
			continue
		}
		c.work.ChannelScans++
		issued, h := c.scheduleChannel(ch, now, orderEp)
		if issued {
			// One command per channel per DRAM cycle: having issued,
			// the channel may have more ready work next edge.
			c.work.CommandsIssued++
			c.chHorizon[ch] = channelHorizon{}
			next = min(next, c.nextEdge(now))
		} else {
			c.chHorizon[ch] = channelHorizon{at: h, orderEp: orderEp}
			next = min(next, h)
		}
	}
	// Wake for the earliest in-flight completion, pending refresh
	// deadline, and any time-driven policy work. edgeCeil is monotone,
	// so rounding the earliest event up to an edge suffices.
	event := int64(dram.Horizon)
	for _, r := range c.inFlight {
		event = min(event, r.CompleteAt)
	}
	for _, ch := range c.channels {
		event = min(event, ch.NextRefresh())
	}
	if c.eventPol != nil {
		event = min(event, c.eventPol.NextPolicyEvent(now))
	}
	if event < dram.Horizon {
		next = min(next, c.edgeCeil(event))
	}
	// The controller already acted on this edge; nothing further can
	// become observable before the next one.
	if next < dram.Horizon {
		next = max(next, c.nextEdge(now))
	}
	c.nextWake = next
	return next
}

// NextTickAt returns the earliest CPU cycle at which calling Tick can
// have an effect. It must be re-read after any Enqueue call: arrivals
// pull the wake-up forward.
func (c *Controller) NextTickAt() int64 { return c.nextWake }

// nextEdge returns the first DRAM clock edge strictly after now.
func (c *Controller) nextEdge(now int64) int64 {
	p := c.cfg.Timing.CPUCyclesPerDRAMCycle
	return now - now%p + p
}

// edgeCeil returns the first DRAM clock edge at or after t — the cycle
// a dense-ticked controller would first observe an event at time t.
func (c *Controller) edgeCeil(t int64) int64 {
	p := c.cfg.Timing.CPUCyclesPerDRAMCycle
	if r := t % p; r != 0 {
		t += p - r
	}
	return t
}

// refreshMemo revalidates r's scheduling memo against the bank's state
// epoch: on a match the cached NextCommand/CommandReadyAt answer is
// exact and nothing is recomputed; on a mismatch (a command issued to
// the bank, a shared-constraint change, or a refresh since the memo was
// taken) both are rederived once and re-stamped. epoch must be
// channel.BankEpoch(r.Loc.Bank), hoisted by the caller since it is
// loop-invariant across one bank's queue on one edge.
func refreshMemo(channel *dram.Channel, r *Request, epoch uint64) {
	if r.cacheEpoch != epoch {
		r.cacheCmd = channel.NextCommand(r.Loc.Bank, r.Loc.Row, r.IsWrite)
		r.cacheReadyAt = channel.CommandReadyAt(r.cacheCmd)
		r.cacheEpoch = epoch
	}
}

// completeFinished retires every in-flight request whose completion
// time has arrived, handing finished reads to their thread's consumer
// in deterministic (CompleteAt, then arrival ID) order. The in-flight
// buffer's internal order is scrambled by past removals and mixes every
// channel's requests, so sorting the due set is what keeps same-cycle
// completions — and everything downstream of their consumers (MSHR
// frees, dependent wakeups, the IDs of requests enqueued from inside a
// consumer) — independent of both buffer layout and channel index. Each
// retired request goes to the free list once its consumer has returned.
func (c *Controller) completeFinished(now int64) {
	due := c.due[:0]
	kept := 0
	for _, r := range c.inFlight {
		if r.CompleteAt > now {
			c.inFlight[kept] = r
			kept++
			continue
		}
		due = append(due, r)
	}
	if len(due) == 0 {
		return
	}
	for i := kept; i < len(c.inFlight); i++ {
		c.inFlight[i] = nil
	}
	c.inFlight = c.inFlight[:kept]
	c.due = due[:0] // keep the backing array; due stays valid below
	// Insertion sort by (CompleteAt, ID): the due set is tiny (bounded
	// by commands retiring on one edge) and this keeps the path
	// allocation-free, unlike sort.Slice.
	for i := 1; i < len(due); i++ {
		r := due[i]
		j := i - 1
		for j >= 0 && (due[j].CompleteAt > r.CompleteAt ||
			(due[j].CompleteAt == r.CompleteAt && due[j].ID > r.ID)) {
			due[j+1] = due[j]
			j--
		}
		due[j+1] = r
	}
	for _, r := range due {
		if !r.IsWrite {
			c.bankServiceDec(r)
			st := &c.threadStats[r.Thread]
			st.ReadsServiced++
			st.TotalReadLatency += r.CompleteAt - r.Arrival
			st.ReadLatency.Record(r.CompleteAt - r.Arrival)
		} else {
			c.threadStats[r.Thread].WritesServiced++
		}
		if c.trace != nil {
			c.traceLifecycle(telemetry.EvComplete, r.CompleteAt, r)
		}
		if !r.IsWrite {
			if rc := c.consumers[r.Thread]; rc != nil {
				rc.ReadDone(r.CompleteAt, r)
			}
		}
		c.free = append(c.free, r)
	}
}

// scheduleChannel implements the paper's two-level scheduler
// (Section 2.3): each per-bank scheduler selects the highest-priority
// *request* among the requests waiting for its bank (whether or not
// that request's next DRAM command is ready this cycle — a bank does
// not fall through to a lower-priority request just because the
// winner's command must wait a few cycles), and the across-bank channel
// scheduler then picks the highest-priority ready command among the
// per-bank winners. It reports whether a command was issued and — when
// none was — the channel's event horizon: the first DRAM edge at which
// some bank's winner becomes ready. Only a winner can issue, and the
// winners hold until the channel's horizon is invalidated (see
// chHorizon), so the horizon is exact.
//
// The steps are eligibility (the channel's read of the global
// write-drain hysteresis), level 1 (arbitrateChannel), level 2
// (pickReady), and — on an issue — the commit in issue.
func (c *Controller) scheduleChannel(ch int, now int64, orderEp uint64) (issued bool, horizon int64) {
	draining, useWrites, hasWork := c.eligibility(ch)
	c.draining[ch] = draining
	if !hasWork {
		return false, dram.Horizon
	}
	ready, minReady := c.arbitrateChannel(ch, now, orderEp, draining, useWrites)
	best := c.pickReady(ready, draining)
	if best == nil {
		if minReady >= dram.Horizon {
			return false, dram.Horizon
		}
		return false, c.edgeCeil(max(now, minReady))
	}
	if c.trace != nil {
		c.traceInversion(now, ch, best, ready)
	}
	c.issue(ch, now, best)
	return true, 0
}

// eligibility computes a channel's view of the write-drain policy:
// whether the channel is in a drain episode this edge, whether buffered
// writes are eligible, and whether the channel has any eligible work at
// all. It reads the global write-buffer occupancy and the channel's
// sticky draining flag; scheduleChannel commits the draining
// transition.
//
// Write-drain policy: writes become eligible (and preferred) when the
// buffer passes the high watermark, with hysteresis down to the low
// watermark; they are also eligible opportunistically when the channel
// has no waiting reads.
func (c *Controller) eligibility(ch int) (draining, useWrites, hasWork bool) {
	draining = c.draining[ch]
	if c.queuedWrites >= c.cfg.WriteDrainHigh {
		draining = true
	} else if c.queuedWrites <= c.cfg.WriteDrainLow {
		draining = false
	}
	useWrites = (draining || c.readMask[ch] == 0) && c.writeMask[ch] != 0
	hasWork = c.readMask[ch] != 0 || useWrites
	return draining, useWrites, hasWork
}

// occupied returns the mask of the channel's banks holding eligible
// requests: every bank with reads, plus those with writes when writes
// are eligible.
func (c *Controller) occupied(ch int, useWrites bool) uint64 {
	if useWrites {
		return c.readMask[ch] | c.writeMask[ch]
	}
	return c.readMask[ch]
}

// arbitrateChannel runs level 1 of the tournament for one channel: it
// finds every occupied bank's winner, replaying the bank's memo when it
// is still valid (see bankMemo; the reservation lock is covered too:
// reserved[ch][b] changes only when a command issues to the bank, which
// bumps its epoch). It returns the mask of banks whose winner is ready,
// with their candidates in bankCand, and the earliest ready time among
// the winners that are not.
func (c *Controller) arbitrateChannel(ch int, now int64, orderEp uint64, draining, useWrites bool) (ready uint64, minReady int64) {
	channel := c.channels[ch]
	base := ch * c.banksPer
	minReady = dram.Horizon
	for banks := c.occupied(ch, useWrites); banks != 0; banks &= banks - 1 {
		b := bits.TrailingZeros64(banks)
		q := &c.queues[base+b]
		m := &c.memo[base+b]
		epoch := channel.BankEpoch(b)
		bankEp := channel.Bank(b).Epoch()
		var r *Request
		if m.qver == q.ver && m.bankEp == bankEp && m.orderEp == orderEp &&
			m.draining == draining && m.useWrites == useWrites {
			c.work.MemoHits++
			r = m.winner
			refreshMemo(channel, r, epoch)
			if now >= r.cacheReadyAt {
				c.bankCand[b] = candidateFor(r, ch)
			}
		} else {
			c.work.MemoMisses++
			c.scanBank(ch, b, q, channel, epoch, draining, useWrites)
			r = c.bankCand[b].Req
			*m = bankMemo{
				winner: r, qver: q.ver, bankEp: bankEp, orderEp: orderEp,
				draining: draining, useWrites: useWrites,
			}
		}
		if now >= r.cacheReadyAt {
			ready |= 1 << uint(b)
		} else if r.cacheReadyAt < minReady {
			minReady = r.cacheReadyAt
		}
	}
	return ready, minReady
}

// scanBank runs one bank's level-1 tournament and writes the winning
// candidate into bankCand[b]. A bank whose open row was activated for a
// request that has not yet used it stays with that request (the
// reservation lock) — but only while that request is among the eligible
// candidates; a reserved write outside a drain episode does not lock
// the bank. The caller guarantees at least one eligible request.
func (c *Controller) scanBank(ch, b int, q *bankQueue, channel *dram.Channel, epoch uint64, draining, useWrites bool) {
	slot := &c.bankCand[b]
	if res := c.reserved[ch][b]; res != nil && (!res.IsWrite || useWrites) {
		refreshMemo(channel, res, epoch)
		*slot = candidateFor(res, ch)
		return
	}
	chal := &c.challenger
	have := false
	for _, list := range q.eligible(useWrites) {
		for _, r := range list {
			refreshMemo(channel, r, epoch)
			*chal = candidateFor(r, ch)
			if !have || c.better(chal, slot, draining) {
				*slot = *chal
				have = true
			}
		}
	}
}

// pickReady is level 2: the across-bank choice among the ready bank
// winners in bankCand, or nil when none is ready.
func (c *Controller) pickReady(ready uint64, draining bool) *Candidate {
	var best *Candidate
	for ; ready != 0; ready &= ready - 1 {
		cand := &c.bankCand[bits.TrailingZeros64(ready)]
		if best == nil || c.better(cand, best, draining) {
			best = cand
		}
	}
	return best
}

// candidateFor builds r's candidate from its (current) timing memo.
func candidateFor(r *Request, ch int) Candidate {
	return Candidate{
		Req: r, Cmd: r.cacheCmd, Outcome: outcomeFor(r.cacheCmd.Kind), Channel: ch,
		First: !r.Started,
	}
}

// better implements the read-over-write rule of Table 2 ("reads
// prioritized over writes") around the pluggable policy. During a
// write-drain episode (buffer past the high watermark, with hysteresis
// down to the low watermark) the preference inverts so buffered writes
// flush in a batch instead of starving behind a steady read stream.
func (c *Controller) better(a, b *Candidate, draining bool) bool {
	if a.Req.IsWrite != b.Req.IsWrite {
		if draining {
			return a.Req.IsWrite
		}
		return !a.Req.IsWrite
	}
	return c.policy.Less(a, b)
}

// issue commits the chosen command. The policy's OnSchedule runs after
// the first-command bookkeeping (so the request's FirstScheduledOutcome
// and the thread's in-service count include it) and before the command
// reaches the channel and the request leaves its queue, so the View
// queries the policy makes see the pre-issue queues and bank state.
// Where OnSchedule sits among the steps cannot change the outcome: it
// writes only policy registers, and the rest of issue writes only
// controller and DRAM state that OnSchedule does not read (removing the
// chosen request changes only the chosen thread's waiting counts, and
// STFM reads those of the other threads).
func (c *Controller) issue(ch int, now int64, chosen *Candidate) {
	channel := c.channels[ch]
	r := chosen.Req
	if !r.Started {
		r.Started = true
		r.FirstScheduledOutcome = chosen.Outcome
		channel.RecordOutcome(chosen.Outcome)
		if c.bankHits != nil {
			idx := ch*c.banksPer + chosen.Cmd.Bank
			switch chosen.Outcome {
			case dram.RowHit:
				c.bankHits[idx]++
			case dram.RowClosed:
				c.bankClosed[idx]++
			default:
				c.bankConflicts[idx]++
			}
		}
		if !r.IsWrite {
			c.bankServiceInc(r)
			st := &c.threadStats[r.Thread]
			switch chosen.Outcome {
			case dram.RowHit:
				st.RowHits++
			case dram.RowClosed:
				st.RowClosed++
			default:
				st.RowConflicts++
			}
		}
	}
	c.policy.OnSchedule(now, chosen)
	burstDone := channel.Issue(chosen.Cmd, now)
	switch {
	case chosen.Cmd.Kind == dram.CmdActivate:
		c.reserved[ch][chosen.Cmd.Bank] = r
	case chosen.Cmd.Kind.IsColumn() && c.reserved[ch][chosen.Cmd.Bank] == r:
		c.reserved[ch][chosen.Cmd.Bank] = nil
	}
	if chosen.Cmd.Kind.IsColumn() {
		r.CASIssued = true
		r.CompleteAt = burstDone
		if !r.IsWrite {
			r.CompleteAt += c.cfg.Timing.RoundTripOverhead
		}
		c.removeQueued(r)
		c.inFlight = append(c.inFlight, r)
	}
	if c.CommandTrace != nil {
		c.CommandTrace(now, ch, chosen.Cmd, r)
	}
	if c.trace != nil {
		c.traceIssue(now, ch, chosen)
	}
}

// traceLifecycle records an enqueue/complete event for a request.
func (c *Controller) traceLifecycle(kind telemetry.EventKind, now int64, r *Request) {
	c.trace.Record(telemetry.Event{
		Cycle: now, Kind: kind, Thread: r.Thread,
		Channel: r.Loc.Channel, Bank: r.Loc.Bank, Row: r.Loc.Row,
		Req: r.ID, Write: r.IsWrite,
	})
}

// traceIssue records the issued DRAM command into the event ring.
func (c *Controller) traceIssue(now int64, ch int, chosen *Candidate) {
	var kind telemetry.EventKind
	switch chosen.Cmd.Kind {
	case dram.CmdActivate:
		kind = telemetry.EvActivate
	case dram.CmdPrecharge:
		kind = telemetry.EvPrecharge
	default:
		kind = telemetry.EvColumn
	}
	r := chosen.Req
	c.trace.Record(telemetry.Event{
		Cycle: now, Kind: kind, Thread: r.Thread,
		Channel: ch, Bank: chosen.Cmd.Bank, Row: chosen.Cmd.Row,
		Req: r.ID, Write: r.IsWrite,
	})
}

// traceInversion records a priority-inversion event when the policy's
// across-bank choice overrode the baseline FR-FCFS order (column-first,
// then oldest-first) against another ready bank winner of the same
// read/write class. Plain FR-FCFS never triggers it by construction;
// under STFM, inversions are exactly the fairness-rule interventions of
// the paper's Section 3.2.1, and under NFQ they mark virtual-time
// prioritization.
func (c *Controller) traceInversion(now int64, ch int, chosen *Candidate, ready uint64) {
	r := chosen.Req
	for ; ready != 0; ready &= ready - 1 {
		o := &c.bankCand[bits.TrailingZeros64(ready)]
		if o.Req == r || o.Req.IsWrite != r.IsWrite {
			continue
		}
		inverted := false
		if o.IsColumn() != chosen.IsColumn() {
			inverted = o.IsColumn()
		} else {
			inverted = o.Req.Older(r)
		}
		if inverted {
			c.trace.Record(telemetry.Event{
				Cycle: now, Kind: telemetry.EvInversion, Thread: r.Thread,
				Channel: ch, Bank: chosen.Cmd.Bank, Row: chosen.Cmd.Row,
				Req: r.ID, Write: r.IsWrite,
			})
			return
		}
	}
}

// removeQueued unlinks r from its bank queue (and every incremental
// index over it) when its column access issues.
func (c *Controller) removeQueued(r *Request) {
	idx := r.Loc.Channel*c.banksPer + r.Loc.Bank
	q := &c.queues[idx]
	list := q.reads
	if r.IsWrite {
		list = q.writes
	}
	for i, qr := range list {
		if qr == r {
			last := len(list) - 1
			list[i] = list[last]
			list[last] = nil
			list = list[:last]
			q.ver++
			break
		}
	}
	empty := len(list) == 0
	bit := uint64(1) << uint(r.Loc.Bank)
	if r.IsWrite {
		q.writes = list
		if empty {
			c.writeMask[r.Loc.Channel] &^= bit
		}
		c.queuedWrites--
		// See EnqueueWrite: occupancy changes touch every channel's
		// drain hysteresis.
		c.clearHorizons()
	} else {
		q.reads = list
		if empty {
			c.readMask[r.Loc.Channel] &^= bit
		}
		c.queuedReads--
		c.queuedPerThr[r.Thread]--
		c.queuedBank[r.Thread][idx]--
		if c.queuedBank[r.Thread][idx] == 0 {
			c.queuedBanks[r.Thread]--
		}
	}
}

func outcomeFor(kind dram.CommandKind) dram.RowBufferOutcome {
	switch kind {
	case dram.CmdPrecharge:
		return dram.RowConflict
	case dram.CmdActivate:
		return dram.RowClosed
	default:
		return dram.RowHit
	}
}

// --- View implementation (used by STFM, FR-FCFS+Cap, NFQ and PAR-BS) ---

// NumThreads implements View.
func (c *Controller) NumThreads() int { return c.cfg.NumThreads }

// InService implements View: the number of distinct banks currently
// servicing the thread's reads (BankAccessParallelism).
func (c *Controller) InService(thread int) int { return c.inServiceBanks[thread] }

func (c *Controller) bankServiceInc(r *Request) {
	idx := r.Loc.Channel*c.banksPer + r.Loc.Bank
	if c.inServiceBank[r.Thread][idx] == 0 {
		c.inServiceBanks[r.Thread]++
	}
	c.inServiceBank[r.Thread][idx]++
}

func (c *Controller) bankServiceDec(r *Request) {
	idx := r.Loc.Channel*c.banksPer + r.Loc.Bank
	c.inServiceBank[r.Thread][idx]--
	if c.inServiceBank[r.Thread][idx] == 0 {
		c.inServiceBanks[r.Thread]--
	}
}

// QueuedRequests implements View.
func (c *Controller) QueuedRequests(thread int) int { return c.queuedPerThr[thread] }

// AppendQueuedReads implements View: channel ch's waiting reads, bank
// by bank.
func (c *Controller) AppendQueuedReads(dst []*Request, ch int) []*Request {
	base := ch * c.banksPer
	for banks := c.readMask[ch]; banks != 0; banks &= banks - 1 {
		dst = append(dst, c.queues[base+bits.TrailingZeros64(banks)].reads...)
	}
	return dst
}

// QueuedBanks implements View: the number of distinct banks for which
// the thread has a waiting read request. Maintained incrementally by
// the enqueue/issue paths, so the query is O(1) — it used to scan every
// queued read, and STFM calls it for every interference victim on
// every scheduled command.
func (c *Controller) QueuedBanks(thread int) int { return c.queuedBanks[thread] }

// eligibleIn returns channel ch's DRAM channel, the bank's state epoch
// and the bank's requests eligible under the channel's current write
// eligibility — what the View queries below scan.
func (c *Controller) eligibleIn(ch, bank int) (*dram.Channel, uint64, [2][]*Request) {
	_, useWrites, _ := c.eligibility(ch)
	channel := c.channels[ch]
	return channel, channel.BankEpoch(bank), c.queues[ch*c.banksPer+bank].eligible(useWrites)
}

// BankWaiters implements View.
func (c *Controller) BankWaiters(now int64, ch, bank int) (waiting, ready uint64) {
	channel, epoch, lists := c.eligibleIn(ch, bank)
	for _, list := range lists {
		for _, r := range list {
			refreshMemo(channel, r, epoch)
			bit := uint64(1) << uint(r.Thread)
			waiting |= bit
			if now >= r.cacheReadyAt {
				ready |= bit
			}
		}
	}
	return waiting, ready
}

// ReadyColumnWaiters implements View. It visits every bank holding
// queued requests; eligibleIn leaves out the writes of banks whose
// writes are not eligible.
func (c *Controller) ReadyColumnWaiters(now int64, ch, exceptBank int) uint64 {
	var ready uint64
	for banks := (c.readMask[ch] | c.writeMask[ch]) &^ (1 << uint(exceptBank)); banks != 0; banks &= banks - 1 {
		channel, epoch, lists := c.eligibleIn(ch, bits.TrailingZeros64(banks))
		for _, list := range lists {
			for _, r := range list {
				refreshMemo(channel, r, epoch)
				if r.cacheCmd.Kind.IsColumn() && now >= r.cacheReadyAt {
					ready |= 1 << uint(r.Thread)
				}
			}
		}
	}
	return ready
}

// OlderRowWaiting implements View.
func (c *Controller) OlderRowWaiting(ch, bank int, id uint64) bool {
	channel, epoch, lists := c.eligibleIn(ch, bank)
	for _, list := range lists {
		for _, r := range list {
			if r.ID < id {
				refreshMemo(channel, r, epoch)
				if !r.cacheCmd.Kind.IsColumn() {
					return true
				}
			}
		}
	}
	return false
}

// Drain runs the controller forward (from CPU cycle start) until all
// buffered requests complete, returning the cycle after the last
// completion. It advances event-driven, jumping between the wake-ups
// Tick reports. It is a test/tool convenience, not used in simulation.
func (c *Controller) Drain(start int64) int64 {
	now := start
	for c.queuedReads > 0 || c.queuedWrites > 0 || len(c.inFlight) > 0 {
		next := c.Tick(now)
		now++
		if next >= dram.Horizon {
			// Queued work with no horizon would be a scheduler bug;
			// keep stepping densely so tests fail loudly, not hang.
			continue
		}
		if next > now {
			now = next
		}
	}
	return now
}
