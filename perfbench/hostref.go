package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host-speed reference. On a shared host the speed of the two CPUs
// drifts by 10-40% over tens of seconds, for every workload at once. To
// keep that drift out of the time metrics, the timed phase interleaves a
// fixed kernel with its work, one short chunk before each cell or
// request, and every time metric is scaled by the kernel's nominal over
// its measured time. The kernel is the benchmark's own code, so no change
// to the simulator changes its speed; the raw figures stay in the
// envelope.

// refLen is the kernel's work per chunk, about refNominalS seconds on the
// 2-vCPU Xeon host the bounds were measured on.
const (
	refLen      = 8192
	refNominalS = 0.0017
	// refBlock is the number of chunks run after each set-up.
	refBlock = 8
)

// refSink keeps the kernel's result alive.
var refSink atomic.Uint64

// refItem is one element the reference kernel sorts.
type refItem struct {
	key  uint64
	a, b int
}

// refKernel sorts refLen items keyed by a fixed xorshift sequence. Like
// the simulator it is branchy, calls closures, allocates and moves memory
// within the L2 cache; of the kernels tried (an integer loop, pointer
// chases over 4 and 16 MB, this sort) its time tracked the simulator's
// best as the host's speed drifted.
func refKernel() uint64 {
	xs := make([]refItem, refLen)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = refItem{key: x, a: i}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].key < xs[j].key })
	return xs[0].key
}

// hostRef collects the chunk times of one run. A nil *hostRef runs no
// chunks and reads a slowdown of 1.
type hostRef struct {
	mu      sync.Mutex
	samples []float64
}

// chunk runs the kernel once and records its wall time. Safe for
// concurrent use.
func (h *hostRef) chunk() {
	if h == nil {
		return
	}
	t := time.Now()
	refSink.Add(refKernel())
	d := since(t)
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.mu.Unlock()
}

// block runs refBlock chunks on the worker pool, between set-ups, where
// a chunk would otherwise be part of the time measured.
func (h *hostRef) block() {
	if h == nil {
		return
	}
	forEach(refBlock, func(int) { h.chunk() })
}

// slowdown returns the host's measured over nominal kernel time: the mean
// of the fastest 80% of chunks, so that a chunk stalled behind the
// garbage collector or the other worker does not count, over
// refNominalS.
func (h *hostRef) slowdown() float64 {
	if h == nil || len(h.samples) == 0 {
		return 1
	}
	h.mu.Lock()
	s := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	sort.Float64s(s)
	s = s[:max(1, len(s)*4/5)]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s)) / refNominalS
}
