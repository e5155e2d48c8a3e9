package experiments

import (
	"fmt"
	"sort"

	"stfm/internal/dram"
	"stfm/internal/sim"
	"stfm/internal/workloads"
)

// MatrixSpec names one of the paper's (workload mix, policy) sweeps as
// a submittable job kind: the stfm-server expands a matrix submission
// into one job per cell, so a figure's whole grid rides the job queue
// and every cell lands in (or is served from) the content-addressed
// result cache. The specs mirror the figure experiments in figures.go
// but expose only the raw cell structure — metric aggregation stays
// with the Runner, which needs alone-run baselines the service computes
// per cell on demand.
type MatrixSpec struct {
	// ID is the submittable name (the figure it reproduces).
	ID string
	// Title describes the sweep.
	Title string
	// Mixes are the workload mixes, one row of the matrix each.
	Mixes []workloads.Mix
	// Policies are the schedulers each mix runs under, one column each.
	Policies []sim.PolicyKind
	// Protocols optionally crosses the matrix with DRAM protocol packs
	// (one plane per pack); empty means every cell runs under the
	// submission's own protocol (usually the DDR2-800 default).
	Protocols []dram.Protocol
}

// Cells returns the number of (mix, policy[, protocol]) jobs the
// matrix expands to.
func (m MatrixSpec) Cells() int {
	n := len(m.Mixes) * len(m.Policies)
	if len(m.Protocols) > 0 {
		n *= len(m.Protocols)
	}
	return n
}

// Matrices lists the named experiment matrices in paper order. Sweeps
// that would expand to hundreds of cells (fig9/fig11 full grids) are
// represented by their sample-workload subsets — the full grids remain
// available through cmd/stfm-experiments, where aggregation happens
// in-process.
func Matrices() []MatrixSpec {
	return []MatrixSpec{
		{
			ID:       "fig5",
			Title:    "2-core: mcf paired with every benchmark, FR-FCFS vs STFM",
			Mixes:    workloads.TwoCorePairs(),
			Policies: []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM},
		},
		{
			ID:       "fig9",
			Title:    "4-core sample workloads under the five evaluated schedulers",
			Mixes:    workloads.SampleFourCore(),
			Policies: sim.AllPolicies(),
		},
		{
			ID:       "fig11",
			Title:    "8-core sample workloads under the five evaluated schedulers",
			Mixes:    workloads.SampleEightCore(),
			Policies: sim.AllPolicies(),
		},
		{
			ID:       "fig12",
			Title:    "16-core workloads under the five evaluated schedulers",
			Mixes:    workloads.SixteenCoreMixes(),
			Policies: sim.AllPolicies(),
		},
		{
			ID:       "desktop",
			Title:    "Desktop application workload under the five evaluated schedulers",
			Mixes:    []workloads.Mix{workloads.Desktop()},
			Policies: sim.AllPolicies(),
		},
		{
			ID:    "protocols",
			Title: "Protocol sensitivity: 4-core sample workloads, FR-FCFS vs STFM, across the five DRAM timing packs",
			// The first four sample mixes keep the expansion (4 mixes x
			// 2 policies x 5 protocols = 40 cells) within the server's
			// default queue capacity; the full grid remains available
			// through cmd/stfm-sweep -knob protocol.
			Mixes:     workloads.SampleFourCore()[:4],
			Policies:  []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM},
			Protocols: dram.Protocols(),
		},
		{
			ID:       "followups",
			Title:    "4-core case studies under FR-FCFS, STFM, and the follow-up scheduler PAR-BS",
			Mixes:    workloads.SampleFourCore(),
			Policies: []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM, sim.PolicyPARBS},
		},
	}
}

// MatrixByID resolves a named matrix, failing fast on unknown names
// with the known set in the message (it becomes an HTTP 400 body).
func MatrixByID(id string) (MatrixSpec, error) {
	for _, m := range Matrices() {
		if m.ID == id {
			return m, nil
		}
	}
	return MatrixSpec{}, fmt.Errorf("experiments: unknown matrix %q (known: %v)", id, MatrixIDs())
}

// MatrixIDs lists the submittable matrix names alphabetically.
func MatrixIDs() []string {
	var ids []string
	for _, m := range Matrices() {
		ids = append(ids, m.ID)
	}
	sort.Strings(ids)
	return ids
}
