package core

import (
	"encoding/json"
	"fmt"
)

// This file implements memctrl.StatefulPolicy for STFM (DESIGN.md
// §17). The Table 1 registers and the derived per-cycle fairness state
// are serialized; configuration (alpha, gamma, weights, interval
// length) is rebuilt by NewSTFM from sim config. The order epoch is a
// cache key, not state, and is not saved (memctrl.Policy.OrderEpoch).
// RestoreState validates every shape: checkpoints are untrusted input.

type stfmState struct {
	TSharedBase  []int64   `json:"tsharedBase"`
	TInterf      []float64 `json:"tinterf"`
	LastRow      [][]int32 `json:"lastRow"`
	IntervalEnds int64     `json:"intervalEnds"`
	LastBankUser []int8    `json:"lastBankUser"`

	Slowdowns    []float64 `json:"slowdowns"`
	FairnessMode bool      `json:"fairnessMode"`
	Unfairness   float64   `json:"unfairness"`
	TMax         int       `json:"tmax"`
	OrderKey     int       `json:"orderKey"`

	FairnessCycles int64     `json:"fairnessCycles"`
	TotalCycles    int64     `json:"totalCycles"`
	IntervalResets int64     `json:"intervalResets"`
	BusInterf      []float64 `json:"busInterf"`
	BankInterf     []float64 `json:"bankInterf"`
	OwnInterf      []float64 `json:"ownInterf"`
}

// SaveState implements memctrl.StatefulPolicy.
func (s *STFM) SaveState() ([]byte, error) {
	return json.Marshal(stfmState{
		TSharedBase:    s.tsharedBase,
		TInterf:        s.tinterf,
		LastRow:        s.lastRow,
		IntervalEnds:   s.intervalEnds,
		LastBankUser:   s.lastBankUser,
		Slowdowns:      s.slowdowns,
		FairnessMode:   s.fairnessMode,
		Unfairness:     s.unfairness,
		TMax:           s.tmax,
		OrderKey:       s.orderKey,
		FairnessCycles: s.fairnessCycles,
		TotalCycles:    s.totalCycles,
		IntervalResets: s.intervalResets,
		BusInterf:      s.busInterf,
		BankInterf:     s.bankInterf,
		OwnInterf:      s.ownInterf,
	})
}

// RestoreState implements memctrl.StatefulPolicy.
func (s *STFM) RestoreState(data []byte) error {
	var st stfmState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: STFM state: %w", err)
	}
	n := s.numThreads
	perThread := [][]float64{st.TInterf, st.Slowdowns, st.BusInterf, st.BankInterf, st.OwnInterf}
	for _, v := range perThread {
		if len(v) != n {
			return fmt.Errorf("core: STFM state has %d thread entries, policy has %d", len(v), n)
		}
	}
	if len(st.TSharedBase) != n || len(st.LastRow) != n {
		return fmt.Errorf("core: STFM state has %d/%d thread entries, policy has %d", len(st.TSharedBase), len(st.LastRow), n)
	}
	totalBanks := len(s.lastBankUser)
	if len(st.LastBankUser) != totalBanks {
		return fmt.Errorf("core: STFM state has %d banks, policy has %d", len(st.LastBankUser), totalBanks)
	}
	for t := range st.LastRow {
		if len(st.LastRow[t]) != totalBanks {
			return fmt.Errorf("core: STFM state thread %d has %d banks, policy has %d", t, len(st.LastRow[t]), totalBanks)
		}
	}
	for _, u := range st.LastBankUser {
		if u < -1 || int(u) >= n {
			return fmt.Errorf("core: STFM state last-bank-user %d out of range [-1,%d)", u, n)
		}
	}
	if st.TMax < -1 || st.TMax >= n {
		return fmt.Errorf("core: STFM state tmax %d out of range [-1,%d)", st.TMax, n)
	}
	if st.OrderKey < -1 || st.OrderKey >= n {
		return fmt.Errorf("core: STFM state order key %d out of range [-1,%d)", st.OrderKey, n)
	}
	copy(s.tsharedBase, st.TSharedBase)
	copy(s.tinterf, st.TInterf)
	for t := range st.LastRow {
		copy(s.lastRow[t], st.LastRow[t])
	}
	s.intervalEnds = st.IntervalEnds
	copy(s.lastBankUser, st.LastBankUser)
	copy(s.slowdowns, st.Slowdowns)
	s.fairnessMode = st.FairnessMode
	s.unfairness = st.Unfairness
	s.tmax = st.TMax
	s.orderKey = st.OrderKey
	s.fairnessCycles = st.FairnessCycles
	s.totalCycles = st.TotalCycles
	s.intervalResets = st.IntervalResets
	copy(s.busInterf, st.BusInterf)
	copy(s.bankInterf, st.BankInterf)
	copy(s.ownInterf, st.OwnInterf)
	return nil
}
