package policy

import (
	"encoding/json"
	"fmt"
	"sort"
)

// This file implements memctrl.StatefulPolicy for the policies that
// carry mutable scheduling registers (DESIGN.md §17). Configuration
// (quanta, caps, shares) is rebuilt by the constructors from sim
// config; only run-time state is serialized. Order epochs are cache
// keys, not state, and are not saved (memctrl.Policy.OrderEpoch): a
// restored controller starts with every memo empty. FR-FCFS and FCFS
// are stateless and have no entry here. Every RestoreState validates
// shapes and returns an error rather than panicking: checkpoints are
// untrusted input (FuzzCheckpointDecode).

type nfqState struct {
	Shares          []float64   `json:"shares"`
	VFT             [][]float64 `json:"vft"`
	RowBlockedSince []int64     `json:"rowBlockedSince"`
	Now             int64       `json:"now"`
}

// SaveState implements memctrl.StatefulPolicy.
func (p *NFQ) SaveState() ([]byte, error) {
	return json.Marshal(nfqState{
		Shares:          p.shares,
		VFT:             p.vft,
		RowBlockedSince: p.rowBlockedSince,
		Now:             p.now,
	})
}

// RestoreState implements memctrl.StatefulPolicy.
func (p *NFQ) RestoreState(data []byte) error {
	var st nfqState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: NFQ state: %w", err)
	}
	if len(st.Shares) != len(p.shares) || len(st.VFT) != len(p.vft) {
		return fmt.Errorf("policy: NFQ state has %d threads, policy has %d", len(st.VFT), len(p.vft))
	}
	if len(st.RowBlockedSince) != len(p.rowBlockedSince) {
		return fmt.Errorf("policy: NFQ state has %d banks, policy has %d", len(st.RowBlockedSince), len(p.rowBlockedSince))
	}
	for t := range st.VFT {
		if len(st.VFT[t]) != len(p.vft[t]) {
			return fmt.Errorf("policy: NFQ state thread %d has %d banks, policy has %d", t, len(st.VFT[t]), len(p.vft[t]))
		}
	}
	copy(p.shares, st.Shares)
	for t := range st.VFT {
		copy(p.vft[t], st.VFT[t])
	}
	copy(p.rowBlockedSince, st.RowBlockedSince)
	p.now = st.Now
	p.nextExpiry = p.pendingExpiry()
	return nil
}

type tcmState struct {
	Served        []int64 `json:"served"`
	LatencyClass  []bool  `json:"latencyClass"`
	Rank          []int   `json:"rank"`
	NextCluster   int64   `json:"nextCluster"`
	NextShuffle   int64   `json:"nextShuffle"`
	ShuffleOffset int     `json:"shuffleOffset"`
}

// SaveState implements memctrl.StatefulPolicy.
func (t *TCM) SaveState() ([]byte, error) {
	return json.Marshal(tcmState{
		Served:        t.served,
		LatencyClass:  t.latencyClass,
		Rank:          t.rank,
		NextCluster:   t.nextCluster,
		NextShuffle:   t.nextShuffle,
		ShuffleOffset: t.shuffleOffset,
	})
}

// RestoreState implements memctrl.StatefulPolicy.
func (t *TCM) RestoreState(data []byte) error {
	var st tcmState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: TCM state: %w", err)
	}
	if len(st.Served) != t.threads || len(st.LatencyClass) != t.threads || len(st.Rank) != t.threads {
		return fmt.Errorf("policy: TCM state has %d/%d/%d thread entries, policy has %d",
			len(st.Served), len(st.LatencyClass), len(st.Rank), t.threads)
	}
	for _, r := range st.Rank {
		if r < 0 || r >= t.threads {
			return fmt.Errorf("policy: TCM state rank %d out of range [0,%d)", r, t.threads)
		}
	}
	copy(t.served, st.Served)
	copy(t.latencyClass, st.LatencyClass)
	copy(t.rank, st.Rank)
	t.nextCluster = st.NextCluster
	t.nextShuffle = st.NextShuffle
	t.shuffleOffset = st.ShuffleOffset
	return nil
}

type parbsState struct {
	// Marked[ch] holds the marked request IDs of channel ch's current
	// batch, sorted ascending (map iteration order is not meaningful).
	Marked    [][]uint64 `json:"marked"`
	Remaining []int      `json:"remaining"`
	Rank      [][]int    `json:"rank"`
}

// SaveState implements memctrl.StatefulPolicy.
func (p *PARBS) SaveState() ([]byte, error) {
	st := parbsState{
		Marked:    make([][]uint64, len(p.marked)),
		Remaining: p.remaining,
		Rank:      p.rank,
	}
	for ch, m := range p.marked {
		ids := make([]uint64, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		st.Marked[ch] = ids
	}
	return json.Marshal(st)
}

// RestoreState implements memctrl.StatefulPolicy.
func (p *PARBS) RestoreState(data []byte) error {
	var st parbsState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: PAR-BS state: %w", err)
	}
	if len(st.Marked) != len(p.marked) || len(st.Remaining) != len(p.remaining) || len(st.Rank) != len(p.rank) {
		return fmt.Errorf("policy: PAR-BS state has %d/%d/%d channels, policy has %d",
			len(st.Marked), len(st.Remaining), len(st.Rank), len(p.marked))
	}
	for ch := range st.Rank {
		if len(st.Rank[ch]) != p.threads {
			return fmt.Errorf("policy: PAR-BS state channel %d has %d ranks, policy has %d threads", ch, len(st.Rank[ch]), p.threads)
		}
		if len(st.Marked[ch]) != st.Remaining[ch] {
			return fmt.Errorf("policy: PAR-BS state channel %d has %d marked IDs but remaining=%d", ch, len(st.Marked[ch]), st.Remaining[ch])
		}
	}
	for ch := range p.marked {
		m := make(map[uint64]bool, len(st.Marked[ch]))
		for _, id := range st.Marked[ch] {
			m[id] = true
		}
		if len(m) != len(st.Marked[ch]) {
			return fmt.Errorf("policy: PAR-BS state channel %d has duplicate marked IDs", ch)
		}
		p.marked[ch] = m
		p.remaining[ch] = st.Remaining[ch]
		copy(p.rank[ch], st.Rank[ch])
	}
	return nil
}

type capState struct {
	Counts [][]int `json:"counts"`
}

// SaveState implements memctrl.StatefulPolicy.
func (f *FRFCFSCap) SaveState() ([]byte, error) {
	return json.Marshal(capState{Counts: f.counts})
}

// RestoreState implements memctrl.StatefulPolicy.
func (f *FRFCFSCap) RestoreState(data []byte) error {
	var st capState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: FRFCFS+Cap state: %w", err)
	}
	if len(st.Counts) != len(f.counts) {
		return fmt.Errorf("policy: FRFCFS+Cap state has %d channels, policy has %d", len(st.Counts), len(f.counts))
	}
	for ch := range st.Counts {
		if len(st.Counts[ch]) != len(f.counts[ch]) {
			return fmt.Errorf("policy: FRFCFS+Cap state channel %d has %d banks, policy has %d", ch, len(st.Counts[ch]), len(f.counts[ch]))
		}
	}
	for ch := range st.Counts {
		copy(f.counts[ch], st.Counts[ch])
	}
	return nil
}
