package memctrl

import (
	"fmt"
	"testing"

	"stfm/internal/dram"
)

// This file microbenchmarks the three functions on the controller's
// per-edge hot path — scheduleChannel (the two-level tournament with
// the per-bank winner memo), the cached no-issue horizon skip in Tick,
// and completeFinished — across the paper's core-count/channel-count
// sweep. The benchmarks live inside the package so they can drive the
// unexported entry points directly; the policy is a local FR-FCFS
// mirror because importing internal/memctrl/policy from here would be
// an import cycle.

// benchFRFCFS mirrors policy.FRFCFS: ready column accesses first, then
// oldest-first. It implements OrderingPolicy (the comparator is
// stateless) so the benchmarks exercise the per-bank winner memo the
// same way the real baseline policy does.
type benchFRFCFS struct{}

func (benchFRFCFS) Name() string     { return "bench-frfcfs" }
func (benchFRFCFS) BeginCycle(int64) {}
func (benchFRFCFS) Less(a, b *Candidate) bool {
	if a.IsColumn() != b.IsColumn() {
		return a.IsColumn()
	}
	return a.Req.Older(b.Req)
}
func (benchFRFCFS) OnSchedule(int64, *Candidate, []Candidate) {}
func (benchFRFCFS) OrderEpoch() uint64                        { return 0 }

var _ OrderingPolicy = benchFRFCFS{}

// edgeGrid is the sweep from the perf issue: 2/8/16 cores crossed with
// 1/2/4 channels (the paper scales channels with cores, but the hot
// path must stay flat across the whole grid).
var edgeGrid = []struct{ threads, channels int }{
	{2, 1}, {2, 2}, {2, 4},
	{8, 1}, {8, 2}, {8, 4},
	{16, 1}, {16, 2}, {16, 4},
}

func newEdgeController(tb testing.TB, threads, channels int) *Controller {
	tb.Helper()
	c, err := NewController(DefaultConfig(threads, channels), benchFRFCFS{})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// fillQueues tops the read and write buffers up to capacity with a
// deterministic spread of threads, channels, banks and rows — a mix of
// row hits, conflicts and bank parallelism, so the tournament sees
// realistically contended queues. Completion callbacks are nil: the
// benchmarks measure the controller, not its callers.
func fillQueues(c *Controller, now int64, threads int) {
	g := c.cfg.Geometry
	i := 0
	for c.CanAcceptRead() {
		loc := dram.Location{
			Channel: i % g.Channels,
			Bank:    (i / g.Channels) % g.BanksPerChannel,
			Row:     1 + (i/3)%4,
			Column:  i % 64,
		}
		c.EnqueueRead(now, i%threads, g.LineAddr(loc), nil)
		i++
	}
	for c.CanAcceptWrite() {
		loc := dram.Location{
			Channel: i % g.Channels,
			Bank:    (i / g.Channels) % g.BanksPerChannel,
			Row:     5 + (i/5)%3,
			Column:  i % 64,
		}
		c.EnqueueWrite(now, i%threads, g.LineAddr(loc))
		i++
	}
}

// BenchmarkScheduleChannel measures the full per-edge scheduling cost
// in steady state: each iteration runs the controller's next effective
// DRAM edge (tournament, issue, completion retirement), refilling the
// buffers whenever they drain. This is the path the simulator hits on
// every controller wake-up.
func BenchmarkScheduleChannel(b *testing.B) {
	for _, g := range edgeGrid {
		b.Run(benchName(g.threads, g.channels), func(b *testing.B) {
			c := newEdgeController(b, g.threads, g.channels)
			fillQueues(c, 0, g.threads)
			c.Tick(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := c.NextTickAt()
				if now >= dram.Horizon {
					b.StopTimer()
					fillQueues(c, now, g.threads)
					now = c.NextTickAt()
					b.StartTimer()
				}
				c.Tick(now)
			}
		})
	}
}

// BenchmarkChannelHorizon measures the cached no-issue edge: once a
// scan finds nothing ready and stores the channel's horizon, repeated
// ticks before that horizon must skip the rescan outright. This is the
// dominant edge class under policies (STFM) that force the controller
// awake every DRAM cycle.
func BenchmarkChannelHorizon(b *testing.B) {
	for _, g := range edgeGrid {
		b.Run(benchName(g.threads, g.channels), func(b *testing.B) {
			c := newEdgeController(b, g.threads, g.channels)
			fillQueues(c, 0, g.threads)
			// Advance until every channel holds a cached future horizon
			// (right after issuing, banks are timing-blocked).
			now := int64(0)
			for {
				now = c.NextTickAt()
				if now >= dram.Horizon {
					b.Fatal("controller drained before reaching a no-issue edge")
				}
				c.Tick(now)
				cached := true
				for ch := range c.chHorizon {
					if c.chHorizon[ch] <= now {
						cached = false
						break
					}
				}
				if cached {
					break
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Tick(now)
			}
		})
	}
}

// BenchmarkCompleteFinished measures retirement of a burst of in-flight
// requests, including the deterministic (CompleteAt, ID) ordering of
// same-cycle completions. The in-flight slice is repopulated from a
// scratch set each iteration, reusing its backing array.
func BenchmarkCompleteFinished(b *testing.B) {
	for _, g := range edgeGrid {
		b.Run(benchName(g.threads, g.channels), func(b *testing.B) {
			c := newEdgeController(b, g.threads, g.channels)
			done := func(int64) {}
			const burst = 16
			reqs := make([]*Request, burst)
			for i := range reqs {
				reqs[i] = &Request{
					ID:     uint64(burst - i), // scrambled vs slice order
					Thread: i % g.threads,
					Loc: dram.Location{
						Channel: i % g.channels,
						Bank:    i % c.cfg.Geometry.BanksPerChannel,
					},
					IsWrite:    i%4 == 3,
					CompleteAt: int64(10 + i/4), // clusters of same-cycle completions
					OnComplete: done,
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.inFlight = append(c.inFlight[:0], reqs...)
				c.completeFinished(1000)
			}
		})
	}
}

func benchName(threads, channels int) string {
	return fmt.Sprintf("cores=%d/ch=%d", threads, channels)
}
