package policy

import (
	"testing"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
)

func TestTCMClustering(t *testing.T) {
	p := NewTCM(3)
	// Thread 0 is heavy (100 serviced), thread 1 light (3), thread 2
	// moderate (20).
	p.served = []int64{100, 3, 20}
	p.recluster()
	if !p.latencyClass[1] {
		t.Error("the light thread must join the latency-sensitive cluster")
	}
	if p.latencyClass[0] {
		t.Error("the heavy thread must stay in the bandwidth cluster")
	}
	// The latency-cluster thread must outrank everyone.
	if p.rank[1] != 0 {
		t.Errorf("light thread rank = %d, want 0", p.rank[1])
	}
}

func TestTCMClusterCapacity(t *testing.T) {
	p := NewTCM(4)
	// Total 100; capacity 0.15 admits only the 5-unit thread, not the
	// 15-unit one on top of it.
	p.served = []int64{60, 5, 15, 20}
	p.recluster()
	if !p.latencyClass[1] {
		t.Error("thread 1 (5 units) fits the 15-unit budget")
	}
	if p.latencyClass[2] {
		t.Error("thread 2 (15 units) would exceed the budget with thread 1 admitted")
	}
}

func TestTCMShuffleRotatesBandwidthRanks(t *testing.T) {
	p := NewTCM(3)
	p.served = []int64{50, 50, 50} // all bandwidth-cluster
	p.recluster()
	p.nextCluster = 1 << 62 // isolate the shuffle from re-clustering
	first := append([]int(nil), p.rank...)
	p.BeginCycle(shuffleQuantum + 1)
	changed := false
	for i := range first {
		if p.rank[i] != first[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("shuffle must rotate bandwidth-cluster ranks")
	}
}

func TestTCMLessUsesRankThenRowHit(t *testing.T) {
	p := NewTCM(2)
	p.served = []int64{100, 1}
	p.recluster()
	light := cand(1, 1, dram.CmdPrecharge, 0, 50)
	heavyHit := cand(2, 0, dram.CmdRead, 1, 1)
	if !p.Less(&light, &heavyHit) {
		t.Error("latency-cluster row access must beat bandwidth-cluster row hit")
	}
	// Same thread: row-hit first.
	a := cand(3, 0, dram.CmdRead, 2, 9)
	b := cand(4, 0, dram.CmdActivate, 3, 2)
	if !p.Less(&a, &b) {
		t.Error("row hit first within a rank class")
	}
}

func TestTCMMetering(t *testing.T) {
	p := NewTCM(2)
	rd := cand(1, 0, dram.CmdRead, 0, 0)
	act := cand(2, 0, dram.CmdActivate, 0, 0)
	wr := cand(3, 1, dram.CmdWrite, 0, 0)
	wr.Req.IsWrite = true
	p.OnSchedule(0, &rd)
	p.OnSchedule(0, &act)
	p.OnSchedule(0, &wr)
	if p.served[0] != 1 || p.served[1] != 0 {
		t.Errorf("served = %v, want [1 0] (reads only)", p.served)
	}
}

var _ memctrl.Policy = (*TCM)(nil)
