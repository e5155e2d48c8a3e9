package policy

import (
	"sort"

	"stfm/internal/memctrl"
)

// TCM implements Thread Cluster Memory scheduling (Kim, Papamichael,
// Mutlu & Harchol-Balter, MICRO 2010) in simplified form — the second
// scheduler in the research line STFM started, included alongside
// PAR-BS as an extension beyond the paper's evaluation.
//
// Every clusterQuantum cycles, threads are ranked by measured memory
// intensity (DRAM reads serviced in the last quantum) and split into
// two clusters:
//
//   - The latency-sensitive cluster holds the least intensive threads,
//     up to clusterCapacity of total traffic. Its requests always beat
//     the bandwidth cluster's: they need little bandwidth, so
//     prioritizing them barely hurts anyone while insulating them from
//     queueing behind heavy threads.
//   - The bandwidth-sensitive cluster holds everyone else. Within it,
//     thread ranks are rotated every shuffleQuantum ("insertion
//     shuffle" simplified to rotation) so interference is time-shared
//     rather than loaded onto whichever thread is unluckiest.
//
// Within a priority class, row hits first, then oldest — the usual
// throughput rules.
type TCM struct {
	threads       int
	served        []int64 // reads serviced per thread, current quantum
	latencyClass  []bool
	rank          []int // smaller = higher priority (both clusters)
	nextCluster   int64
	nextShuffle   int64
	shuffleOffset int
	// orderEpoch counts rank reassignments — the only mutable state
	// Less reads — licensing the controller's per-bank winner memo.
	orderEpoch uint64
}

// TCM's tuning constants.
const (
	// clusterQuantum is the re-clustering period in CPU cycles.
	clusterQuantum = 1_000_000
	// shuffleQuantum is the bandwidth-cluster rank rotation period in
	// CPU cycles (800 DRAM cycles).
	shuffleQuantum = 8_000
	// clusterCapacity is the fraction of measured traffic admitted to
	// the latency-sensitive cluster (0.15 in the TCM paper's spirit).
	clusterCapacity = 0.15
)

// NewTCM builds the scheduler for the given thread count.
func NewTCM(threads int) *TCM {
	t := &TCM{
		threads:      threads,
		served:       make([]int64, threads),
		latencyClass: make([]bool, threads),
		rank:         make([]int, threads),
	}
	for i := range t.rank {
		t.rank[i] = i
	}
	return t
}

// Name implements memctrl.Policy.
func (*TCM) Name() string { return "TCM" }

// BeginCycle implements memctrl.Policy: periodic re-clustering and
// bandwidth-cluster shuffling.
func (t *TCM) BeginCycle(now int64) {
	if now >= t.nextCluster {
		t.recluster()
		for t.nextCluster <= now {
			t.nextCluster += clusterQuantum
		}
	}
	if now >= t.nextShuffle {
		t.shuffleOffset++
		t.assignRanks()
		for t.nextShuffle <= now {
			t.nextShuffle += shuffleQuantum
		}
	}
}

// NextPolicyEvent implements memctrl.EventPolicy: the controller must
// tick TCM at its quantum boundaries even when the memory system is
// idle, because BeginCycle's shuffle counter advances once per boundary
// *crossing* — a controller that slept through two shuffle quanta and
// then called BeginCycle once would rotate the bandwidth-cluster ranks
// once instead of twice, diverging from the dense-tick schedule.
func (t *TCM) NextPolicyEvent(int64) int64 {
	return min(t.nextCluster, t.nextShuffle)
}

// recluster classifies threads by last-quantum service counts.
func (t *TCM) recluster() {
	order := make([]int, t.threads)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.served[order[a]] < t.served[order[b]] })
	var total int64
	for _, s := range t.served {
		total += s
	}
	budget := int64(clusterCapacity * float64(total))
	var used int64
	for i := range t.latencyClass {
		t.latencyClass[i] = false
	}
	for _, thread := range order {
		if used+t.served[thread] > budget {
			break
		}
		used += t.served[thread]
		t.latencyClass[thread] = true
	}
	for i := range t.served {
		t.served[i] = 0
	}
	t.assignRanks()
}

// assignRanks orders latency-cluster threads first (ascending measured
// intensity), then bandwidth-cluster threads in rotated order.
func (t *TCM) assignRanks() {
	t.orderEpoch++
	var latency, bandwidth []int
	for i := 0; i < t.threads; i++ {
		if t.latencyClass[i] {
			latency = append(latency, i)
		} else {
			bandwidth = append(bandwidth, i)
		}
	}
	sort.SliceStable(latency, func(a, b int) bool { return t.served[latency[a]] < t.served[latency[b]] })
	if len(bandwidth) > 0 {
		off := t.shuffleOffset % len(bandwidth)
		bandwidth = append(bandwidth[off:], bandwidth[:off]...)
	}
	pos := 0
	for _, th := range latency {
		t.rank[th] = pos
		pos++
	}
	for _, th := range bandwidth {
		t.rank[th] = pos
		pos++
	}
}

// Less implements memctrl.Policy: cluster rank, then row-hit first,
// then oldest.
func (t *TCM) Less(a, b *memctrl.Candidate) bool {
	ra, rb := t.rank[a.Req.Thread], t.rank[b.Req.Thread]
	if ra != rb {
		return ra < rb
	}
	if a.IsColumn() != b.IsColumn() {
		return a.IsColumn()
	}
	return a.Req.Older(b.Req)
}

// OnSchedule implements memctrl.Policy: meter per-thread service. It
// reads nothing.
func (t *TCM) OnSchedule(_ int64, chosen *memctrl.Candidate) {
	if chosen.Cmd.Kind.IsColumn() && !chosen.Req.IsWrite {
		t.served[chosen.Req.Thread]++
	}
}

// OrderEpoch implements memctrl.Policy: ranks change only in
// assignRanks (reclustering and shuffling), which bumps the epoch.
func (t *TCM) OrderEpoch() uint64 { return t.orderEpoch }

var (
	_ memctrl.Policy      = (*TCM)(nil)
	_ memctrl.EventPolicy = (*TCM)(nil)
)
