package memctrl

import (
	"fmt"

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

// bankMemo caches one bank's level-1 arbitration outcome. The winner is
// reusable while (a) the queue membership is unchanged (qver), (b) the
// bank's own state is unchanged (bankEp — the bank-local epoch, not the
// combined BankEpoch: shared-constraint changes move readiness times but
// never the winner, since level-1 arbitration ignores readiness and
// NextCommand depends only on bank row state), (c) the policy's ordering
// is unchanged (orderEp), and (d) the read/write eligibility inputs are
// unchanged (draining, useWrites — they depend on channel- and
// global-level occupancy the bank-local keys don't see). minReady is the
// minimum CommandReadyAt over the bank's eligible requests as of the
// last full scan; every constraint timestamp is monotonically
// non-decreasing while the bank state holds, so it stays a sound lower
// bound for the no-issue horizon (conservative: may wake early, never
// late) and is re-tightened in place when it falls due.
type bankMemo struct {
	winner    *Request
	qver      uint64
	bankEp    uint64
	orderEp   uint64
	minReady  int64
	draining  bool
	useWrites bool
}

// Controller is the DRAM memory controller: it buffers requests from
// all cores, translates them to DRAM commands, and issues at most one
// ready command per channel per DRAM cycle, chosen by the configured
// Policy.
type Controller struct {
	cfg      Config
	channels []*dram.Channel
	policy   Policy
	// batch/eventPol/ordering cache the policy's optional-interface
	// assertions, resolved once in SetPolicy so the per-edge path does
	// not repeat them.
	batch    BatchPolicy
	eventPol EventPolicy
	ordering OrderingPolicy

	// banksPer caches Geometry.BanksPerChannel; queues is the request
	// index, addressed queues[ch*banksPer+bank], and memo the per-bank
	// winner cache with the same addressing (consulted only when the
	// policy implements OrderingPolicy).
	banksPer int
	queues   []bankQueue
	memo     []bankMemo
	// chReads/chWrites count queued requests per channel (sums of the
	// channel's bank queues), so empty channels are skipped in O(1).
	chReads  []int
	chWrites []int
	// chHorizon memoizes a channel's no-issue scheduling horizon: when
	// scheduleChannel finds no ready candidate, nothing on the channel
	// can issue before the horizon regardless of policy (a ready
	// candidate would have made *some* winner issue), so the per-edge
	// rescan is skipped until then. The cache is invalidated (set to 0)
	// by every event that can change the channel's candidate set or
	// timing: an enqueue to the channel, a command issue on it, a
	// refresh, and any change to the global write-buffer occupancy
	// (which feeds every channel's drain hysteresis and write
	// eligibility). Between invalidations the channel's queues, bank
	// state, and eligibility are provably constant, so skipped edges
	// compute nothing a scan would.
	chHorizon []int64
	// inFlight holds requests whose column access has issued and whose
	// completion time is pending, across all channels.
	inFlight []*Request
	// due is completeFinished's scratch for the requests completing on
	// the current edge (fired in deterministic CompleteAt-then-ID
	// order).
	due []*Request

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
	// scratch is the per-channel candidate slice, materialized only
	// when a command issues (for Policy.OnSchedule) or when a
	// BatchPolicy needs the waiting set; bankCand holds each bank's
	// level-1 winner, bankBest the per-bank winner pointers, and
	// challenger is the stack-avoiding slot candidates are staged in
	// before comparison (policies receive *Candidate, and a pointer
	// into controller-owned memory keeps the edge path free of
	// escape-analysis heap allocations). Channels are scheduled one at
	// a time, so one set serves them all.
	scratch    []Candidate
	bankCand   []Candidate
	bankBest   []*Candidate
	challenger Candidate
	// reserved[ch][bank] is the request whose activate opened the
	// bank's current row and whose column access has not issued yet.
	// Until that column access issues, the bank is not re-arbitrated
	// to a conflicting request: closing a row that was opened but
	// never used would waste the full tRCD+tRAS and allows priority
	// ping-pong livelock between threads under slowdown-driven
	// policies.
	reserved [][]*Request

	// CommandTrace, if non-nil, receives every issued command (used by
	// tests and the trace inspection tool).
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
	// EnqueueRead/EnqueueWrite pull it forward to the next edge so new
	// arrivals are scheduled exactly when a dense-ticked controller
	// would first see them.
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
	// loop is allocation-free (asserted by TestEdgePathZeroAllocs).
	bufCap := cfg.ReadBufferCap + cfg.WriteBufferCap
	c := &Controller{
		cfg:            cfg,
		banksPer:       banks,
		queues:         make([]bankQueue, cfg.Geometry.Channels*banks),
		memo:           make([]bankMemo, cfg.Geometry.Channels*banks),
		chReads:        make([]int, cfg.Geometry.Channels),
		chWrites:       make([]int, cfg.Geometry.Channels),
		chHorizon:      make([]int64, cfg.Geometry.Channels),
		inFlight:       make([]*Request, 0, bufCap),
		due:            make([]*Request, 0, bufCap),
		draining:       make([]bool, cfg.Geometry.Channels),
		queuedPerThr:   make([]int, cfg.NumThreads),
		queuedBank:     make([][]int16, cfg.NumThreads),
		queuedBanks:    make([]int, cfg.NumThreads),
		inServiceBank:  make([][]int16, cfg.NumThreads),
		inServiceBanks: make([]int, cfg.NumThreads),
		threadStats:    make([]ThreadStats, cfg.NumThreads),
		scratch:        make([]Candidate, 0, bufCap),
		bankCand:       make([]Candidate, banks),
		bankBest:       make([]*Candidate, banks),
	}
	c.setPolicy(policy)
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
func (c *Controller) SetPolicy(p Policy) { c.setPolicy(p) }

func (c *Controller) setPolicy(p Policy) {
	c.policy = p
	c.batch, _ = p.(BatchPolicy)
	c.eventPol, _ = p.(EventPolicy)
	c.ordering, _ = p.(OrderingPolicy)
}

// SwitchPolicy replaces the scheduling policy mid-run and normalizes
// every piece of cached scheduling state so the switch is
// schedule-deterministic: a run that switches at cycle t and a
// checkpoint taken at t then restored under the new policy continue
// bit-identically.
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
	c.setPolicy(p)
	for i := range c.memo {
		c.memo[i] = bankMemo{}
	}
	for i := range c.chHorizon {
		c.chHorizon[i] = 0
	}
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

// EnqueueRead adds a demand read for lineAddr from the given thread.
// onComplete (may be nil) fires when the full round trip finishes. It
// returns false, without side effects, if the request buffer is full.
func (c *Controller) EnqueueRead(now int64, thread int, lineAddr uint64, onComplete func(now int64)) bool {
	if !c.CanAcceptRead() {
		return false
	}
	r := c.newRequest(now, thread, lineAddr, false)
	r.OnComplete = onComplete
	idx := r.Loc.Channel*c.banksPer + r.Loc.Bank
	q := &c.queues[idx]
	q.reads = append(q.reads, r)
	q.ver++
	c.chReads[r.Loc.Channel]++
	c.chHorizon[r.Loc.Channel] = 0
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
	c.wakeAtNextEdge(now)
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
	c.chWrites[r.Loc.Channel]++
	c.queuedWrites++
	c.enqueuedWrites++
	// The write-buffer occupancy feeds every channel's drain
	// hysteresis, so a change invalidates all cached horizons.
	for i := range c.chHorizon {
		c.chHorizon[i] = 0
	}
	if c.trace != nil {
		c.traceLifecycle(telemetry.EvEnqueue, now, r)
	}
	c.wakeAtNextEdge(now)
	return true
}

func (c *Controller) newRequest(now int64, thread int, lineAddr uint64, isWrite bool) *Request {
	c.nextID++
	return &Request{
		ID:       c.nextID,
		Thread:   thread,
		LineAddr: lineAddr,
		Loc:      c.cfg.Geometry.Map(lineAddr),
		IsWrite:  isWrite,
		Arrival:  now,
	}
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
	c.completeFinished(now)
	c.policy.BeginCycle(now)
	next := int64(dram.Horizon)
	for ch := range c.channels {
		if c.channels[ch].MaybeRefresh(now) {
			c.chHorizon[ch] = 0
		}
		// A cached no-issue horizon still in the future means the
		// channel's state has not changed since the last scan and no
		// candidate can become ready yet: skip the rescan outright.
		if h := c.chHorizon[ch]; now < h {
			if h < next {
				next = h
			}
			continue
		}
		issued, h := c.scheduleChannel(ch, now)
		if issued {
			// One command per channel per DRAM cycle: having issued,
			// the channel may have more ready work next edge.
			c.chHorizon[ch] = 0
			next = min(next, c.nextEdge(now))
		} else {
			c.chHorizon[ch] = h
			if h < next {
				next = h
			}
		}
	}
	// Wake for the earliest in-flight completion, pending refresh
	// deadline, and any time-driven policy work.
	for _, r := range c.inFlight {
		next = min(next, c.edgeCeil(r.CompleteAt))
	}
	for _, ch := range c.channels {
		if at := ch.NextRefresh(); at < dram.Horizon {
			next = min(next, c.edgeCeil(at))
		}
	}
	if c.eventPol != nil {
		if at := c.eventPol.NextPolicyEvent(now); at < dram.Horizon {
			next = min(next, c.edgeCeil(at))
		}
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

// wakeAtNextEdge pulls nextWake forward to the first DRAM edge after
// now (enqueues happen mid-cycle, after this cycle's edge work ran).
func (c *Controller) wakeAtNextEdge(now int64) {
	if e := c.nextEdge(now); e < c.nextWake {
		c.nextWake = e
	}
}

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
// time has arrived, firing OnComplete callbacks in deterministic
// (CompleteAt, then arrival ID) order. The in-flight buffer's internal
// order is scrambled by past removals and mixes every channel's
// requests, so sorting the due set is what keeps same-cycle completions
// — and everything downstream of their callbacks (MSHR frees, dependent
// wakeups, the IDs of requests enqueued from inside a callback) —
// independent of both buffer layout and channel index.
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
		if r.OnComplete != nil {
			r.OnComplete(r.CompleteAt)
		}
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
// none was — the channel's event horizon: the earliest DRAM edge at
// which any candidate's command could become ready, computed in the
// same pass so the former separate channelHorizon rescan is gone.
//
// The horizon deliberately ignores arbitration (a lower-priority
// candidate becoming ready wakes the controller even if it then
// loses): conservative, and therefore exact.
//
// The steps are eligibility (the channel's read of the global
// write-drain hysteresis), arbitrateChannel (the two-level tournament),
// and — on an issue — materializeChannel plus the commit in issue.
func (c *Controller) scheduleChannel(ch int, now int64) (issued bool, horizon int64) {
	draining, useWrites, hasWork := c.eligibility(ch)
	c.draining[ch] = draining
	if !hasWork {
		return false, dram.Horizon
	}
	if c.batch != nil {
		return c.scheduleChannelBatch(ch, now, draining, useWrites)
	}
	best, h := c.arbitrateChannel(ch, now, draining, useWrites)
	if best == nil {
		return false, h
	}
	// A command issues: materialize the channel's full waiting set for
	// the policy's OnSchedule accounting (and the inversion tracer).
	cands := c.materializeChannel(ch, now, useWrites)
	if c.trace != nil {
		c.traceInversion(now, ch, best, c.bankBest)
	}
	c.issue(ch, now, best, cands)
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
	useWrites = (draining || c.chReads[ch] == 0) && c.chWrites[ch] > 0
	hasWork = c.chReads[ch] > 0 || useWrites
	return draining, useWrites, hasWork
}

// arbitrateChannel runs the paper's two-level tournament for one
// channel and returns the winning ready candidate, or (nil, horizon)
// when nothing can issue. The winner points into bankCand, and
// bankBest holds every bank's level-1 winner until the next channel is
// arbitrated.
func (c *Controller) arbitrateChannel(ch int, now int64, draining, useWrites bool) (*Candidate, int64) {
	channel := c.channels[ch]
	base := ch * c.banksPer
	minReady := int64(dram.Horizon)
	chal := &c.challenger
	memoize := c.ordering != nil
	var orderEp uint64
	if memoize {
		orderEp = c.ordering.OrderEpoch()
	}

	// Level 1: per-bank request arbitration over the bank's own queue.
	// A bank whose open row was activated for a request that has not
	// yet used it stays with that request (the reservation lock) —
	// but only while that request is among the eligible candidates;
	// a reserved write outside a drain episode does not lock the bank.
	// Under an OrderingPolicy each bank's tournament outcome is memoized
	// and replayed while the bank's queue, its state, and the policy's
	// ordering are all unchanged (the reservation lock is covered too:
	// reserved[ch][b] changes only when a command issues to the bank,
	// which bumps its epoch).
	bankBest := c.bankBest
	for b := 0; b < c.banksPer; b++ {
		bankBest[b] = nil
		q := &c.queues[base+b]
		if len(q.reads) == 0 && (!useWrites || len(q.writes) == 0) {
			continue
		}
		epoch := channel.BankEpoch(b)
		slot := &c.bankCand[b]
		if memoize {
			m := &c.memo[base+b]
			bankEp := channel.Bank(b).Epoch()
			if m.qver == q.ver && m.bankEp == bankEp && m.orderEp == orderEp &&
				m.draining == draining && m.useWrites == useWrites {
				// Memo hit: rebuild only the winner's candidate from its
				// (revalidated) timing memo.
				r := m.winner
				refreshMemo(channel, r, epoch)
				*slot = Candidate{
					Req: r, Cmd: r.cacheCmd, Outcome: outcomeFor(r.cacheCmd.Kind), Channel: ch,
					First: !r.Started, Ready: now >= r.cacheReadyAt,
				}
				bankBest[b] = slot
				if !slot.Ready && m.minReady <= now {
					// The stored lower bound has fallen due while the
					// winner is still blocked: re-tighten it with a
					// readiness-only rescan (no Less tournament) so a
					// no-issue edge does not degrade to dense polling.
					m.minReady = c.bankMinReady(q, channel, epoch, useWrites)
				}
				if m.minReady < minReady {
					minReady = m.minReady
				}
				continue
			}
			// Memo miss: run the full tournament below, then store.
			bankMin := c.scanBank(ch, b, q, channel, epoch, now, draining, useWrites, chal, slot)
			if bankMin < minReady {
				minReady = bankMin
			}
			*m = bankMemo{
				winner: slot.Req, qver: q.ver, bankEp: bankEp, orderEp: orderEp,
				minReady: bankMin, draining: draining, useWrites: useWrites,
			}
			bankBest[b] = slot
			continue
		}
		bankMin := c.scanBank(ch, b, q, channel, epoch, now, draining, useWrites, chal, slot)
		if bankMin < minReady {
			minReady = bankMin
		}
		bankBest[b] = slot
	}

	// Level 2: across-bank selection among ready winners.
	var best *Candidate
	for _, cand := range bankBest {
		if cand == nil || !cand.Ready {
			continue
		}
		if best == nil || c.better(cand, best, draining) {
			best = cand
		}
	}
	if best == nil {
		if minReady >= dram.Horizon {
			return nil, dram.Horizon
		}
		return nil, c.edgeCeil(max(now, minReady))
	}
	return best, 0
}

// materializeChannel builds the channel's full waiting candidate set
// for the policy's OnSchedule accounting. Each request's timing memo is
// revalidated first — on a memo-hit edge only the bank winners were
// refreshed during arbitration — so the copied-out candidates are
// exact. It runs only on issue edges (the far more frequent no-issue
// edges skip it entirely); the returned slice is backed by scratch.
func (c *Controller) materializeChannel(ch int, now int64, useWrites bool) []Candidate {
	channel := c.channels[ch]
	base := ch * c.banksPer
	cands := c.scratch[:0]
	for b := 0; b < c.banksPer; b++ {
		q := &c.queues[base+b]
		epoch := channel.BankEpoch(b)
		for pass := 0; pass < 2; pass++ {
			list := q.reads
			if pass == 1 {
				if !useWrites {
					break
				}
				list = q.writes
			}
			for _, r := range list {
				refreshMemo(channel, r, epoch)
				cands = append(cands, Candidate{
					Req: r, Cmd: r.cacheCmd, Outcome: outcomeFor(r.cacheCmd.Kind), Channel: ch,
					First: !r.Started, Ready: now >= r.cacheReadyAt,
				})
			}
		}
	}
	c.scratch = cands[:0]
	return cands
}

// scanBank runs one bank's level-1 tournament: it refreshes every
// eligible request's timing memo, tracks the bank's minimum
// CommandReadyAt (returned, for the no-issue horizon and the winner
// memo), and writes the winning candidate into slot. The caller
// guarantees at least one eligible request, so slot always holds a
// winner on return.
func (c *Controller) scanBank(ch, b int, q *bankQueue, channel *dram.Channel, epoch uint64, now int64, draining, useWrites bool, chal, slot *Candidate) int64 {
	minReady := int64(dram.Horizon)
	res := c.reserved[ch][b]
	have, locked := false, false
	for pass := 0; pass < 2; pass++ {
		list := q.reads
		if pass == 1 {
			if !useWrites {
				break
			}
			list = q.writes
		}
		for _, r := range list {
			refreshMemo(channel, r, epoch)
			if r.cacheReadyAt < minReady {
				minReady = r.cacheReadyAt
			}
			if locked {
				continue
			}
			if r == res {
				*slot = Candidate{
					Req: r, Cmd: r.cacheCmd, Outcome: outcomeFor(r.cacheCmd.Kind), Channel: ch,
					First: !r.Started, Ready: now >= r.cacheReadyAt,
				}
				have, locked = true, true
				continue
			}
			*chal = Candidate{
				Req: r, Cmd: r.cacheCmd, Outcome: outcomeFor(r.cacheCmd.Kind), Channel: ch,
				First: !r.Started, Ready: now >= r.cacheReadyAt,
			}
			if !have || c.better(chal, slot, draining) {
				*slot = *chal
				have = true
			}
		}
	}
	return minReady
}

// bankMinReady recomputes the bank's minimum CommandReadyAt over its
// eligible requests — the readiness half of scanBank without the Less
// tournament, used to re-tighten a memoized bank's horizon bound.
func (c *Controller) bankMinReady(q *bankQueue, channel *dram.Channel, epoch uint64, useWrites bool) int64 {
	minReady := int64(dram.Horizon)
	for pass := 0; pass < 2; pass++ {
		list := q.reads
		if pass == 1 {
			if !useWrites {
				break
			}
			list = q.writes
		}
		for _, r := range list {
			refreshMemo(channel, r, epoch)
			if r.cacheReadyAt < minReady {
				minReady = r.cacheReadyAt
			}
		}
	}
	return minReady
}

// scheduleChannelBatch is the BatchPolicy (PAR-BS) variant: the policy
// needs the channel's full waiting set before arbitration (batch
// formation), so the candidate slice is materialized up front every
// edge and arbitration runs over it, with the horizon folded into the
// same pass exactly like the fast path.
func (c *Controller) scheduleChannelBatch(ch int, now int64, draining, useWrites bool) (issued bool, horizon int64) {
	channel := c.channels[ch]
	base := ch * c.banksPer
	minReady := int64(dram.Horizon)
	cands := c.scratch[:0]
	for b := 0; b < c.banksPer; b++ {
		q := &c.queues[base+b]
		if len(q.reads) == 0 && (!useWrites || len(q.writes) == 0) {
			continue
		}
		epoch := channel.BankEpoch(b)
		for pass := 0; pass < 2; pass++ {
			list := q.reads
			if pass == 1 {
				if !useWrites {
					break
				}
				list = q.writes
			}
			for _, r := range list {
				refreshMemo(channel, r, epoch)
				if r.cacheReadyAt < minReady {
					minReady = r.cacheReadyAt
				}
				cands = append(cands, Candidate{
					Req: r, Cmd: r.cacheCmd, Outcome: outcomeFor(r.cacheCmd.Kind), Channel: ch,
					First: !r.Started, Ready: now >= r.cacheReadyAt,
				})
			}
		}
	}
	c.scratch = cands[:0]
	if len(cands) == 0 {
		return false, dram.Horizon
	}
	c.batch.PrepareCycle(ch, now, cands)

	// Level 1: per-bank winner over the materialized set, honoring the
	// reservation lock exactly like the fast path.
	bankBest := c.bankBest
	for b := range bankBest {
		bankBest[b] = nil
	}
	var lockedBanks uint64
	for i := range cands {
		cand := &cands[i]
		b := cand.Cmd.Bank
		if lockedBanks&(1<<uint(b)) != 0 {
			continue
		}
		if c.reserved[ch][b] == cand.Req {
			bankBest[b] = cand
			lockedBanks |= 1 << uint(b)
			continue
		}
		if bankBest[b] == nil || c.better(cand, bankBest[b], draining) {
			bankBest[b] = cand
		}
	}

	// Level 2: across-bank selection among ready winners.
	var best *Candidate
	for _, cand := range bankBest {
		if cand == nil || !cand.Ready {
			continue
		}
		if best == nil || c.better(cand, best, draining) {
			best = cand
		}
	}
	if best == nil {
		if minReady >= dram.Horizon {
			return false, dram.Horizon
		}
		return false, c.edgeCeil(max(now, minReady))
	}
	if c.trace != nil {
		c.traceInversion(now, ch, best, bankBest)
	}
	c.issue(ch, now, best, cands)
	return true, 0
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

func (c *Controller) issue(ch int, now int64, chosen *Candidate, cands []Candidate) {
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
	c.policy.OnSchedule(now, chosen, cands)
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
// the paper's Section 3.2.1, and under NFQ/TCM they mark virtual-time /
// cluster prioritization.
func (c *Controller) traceInversion(now int64, ch int, chosen *Candidate, bankBest []*Candidate) {
	r := chosen.Req
	for _, o := range bankBest {
		if o == nil || o.Req == r || !o.Ready || o.Req.IsWrite != r.IsWrite {
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
	if r.IsWrite {
		q.writes = list
		c.chWrites[r.Loc.Channel]--
		c.queuedWrites--
		// See EnqueueWrite: occupancy changes touch every channel's
		// drain hysteresis.
		for i := range c.chHorizon {
			c.chHorizon[i] = 0
		}
	} else {
		q.reads = list
		c.chReads[r.Loc.Channel]--
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

// --- View implementation (used by the STFM policy) ---

// NumThreads implements View.
func (c *Controller) NumThreads() int { return c.cfg.NumThreads }

// HasQueued implements View.
func (c *Controller) HasQueued(thread int) bool { return c.queuedPerThr[thread] > 0 }

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

// QueuedBanks implements View: the number of distinct banks for which
// the thread has a waiting read request. Maintained incrementally by
// the enqueue/issue paths, so the query is O(1) — it used to scan every
// queued read, and STFM calls it for every interference victim on
// every scheduled command.
func (c *Controller) QueuedBanks(thread int) int { return c.queuedBanks[thread] }

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
