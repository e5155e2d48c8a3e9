package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"stfm/internal/metrics"
	"stfm/internal/sim"
)

// simCounters accumulates the modelled components' counts, read through
// the public accessors of each finished sim.System.
type simCounters struct {
	mu sync.Mutex

	cycles, instructions int64
	// memctrl, summed over threads (ThreadStats)
	reads, writes, readLatency int64
	// dram, summed over channels (Channel.Stats)
	activates, precharges, refreshes int64
	rowHits, rowAccesses             int64
	busBusy, busTotal                int64
	// cpu, summed over cores
	memStall, dramLoads int64
	// cache, summed over hierarchies
	l1Hits, l1Accesses, l2Hits, l2Accesses int64
	// core (STFM), over STFM cells; the fractions are summed in sorted
	// order, so the mean does not depend on which cell finished first
	fairnessFracs  []float64
	intervalResets int64
	// hostNs is the host time spent in System.RunContext.
	hostNs int64
}

// add reads one finished system's accessors. Safe for concurrent use.
func (c *simCounters) add(sys *sim.System, res *sim.Result, hostNs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hostNs += hostNs
	c.cycles += res.TotalCycles
	ctrl := sys.Controller()
	for i, th := range res.Threads {
		c.instructions += th.Instructions
		st := ctrl.ThreadStats(i)
		c.reads += st.ReadsServiced
		c.writes += st.WritesServiced
		c.readLatency += st.TotalReadLatency
		core := sys.Core(i)
		c.memStall += core.MemStallCycles()
		c.dramLoads += core.DRAMLoads()
		if h := sys.Hierarchy(i); h != nil {
			c.l1Hits += h.L1().Hits()
			c.l1Accesses += h.L1().Hits() + h.L1().Misses()
			c.l2Hits += h.L2().Hits()
			c.l2Accesses += h.L2().Hits() + h.L2().Misses()
		}
	}
	channels := ctrl.Config().Geometry.Channels
	for i := 0; i < channels; i++ {
		st := ctrl.Channel(i).Stats()
		c.activates += st.Activates
		c.precharges += st.Precharges
		c.refreshes += st.Refreshes
		c.rowHits += st.RowHits
		c.rowAccesses += st.RowHits + st.RowClosed + st.RowConflict
		c.busBusy += st.BusyCycles
	}
	c.busTotal += int64(channels) * res.TotalCycles
	if st := sys.STFM(); st != nil {
		c.fairnessFracs = append(c.fairnessFracs, st.FairnessModeFraction())
		c.intervalResets += st.IntervalResets()
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// set writes the memctrl, core, dram, cpu, cache and sim per-layer
// metrics.
func (c *simCounters) set(layers metricSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	layers["memctrl.reads"] = metric{float64(c.reads), "count"}
	layers["memctrl.writes"] = metric{float64(c.writes), "count"}
	layers["memctrl.read_lat_avg_cycles"] = metric{ratio(float64(c.readLatency), float64(c.reads)), "cycles"}
	sort.Float64s(c.fairnessFracs)
	var frac float64
	for _, f := range c.fairnessFracs {
		frac += f
	}
	layers["core.fairness_mode_frac"] = metric{ratio(frac, float64(len(c.fairnessFracs))), "fraction"}
	layers["core.interval_resets"] = metric{float64(c.intervalResets), "count"}
	layers["dram.activates"] = metric{float64(c.activates), "count"}
	layers["dram.precharges"] = metric{float64(c.precharges), "count"}
	layers["dram.row_hit_rate"] = metric{ratio(float64(c.rowHits), float64(c.rowAccesses)), "fraction"}
	layers["dram.bus_util"] = metric{ratio(float64(c.busBusy), float64(c.busTotal)), "fraction"}
	layers["dram.refreshes"] = metric{float64(c.refreshes), "count"}
	layers["cpu.mem_stall_cycles"] = metric{float64(c.memStall), "cycles"}
	layers["cpu.dram_loads"] = metric{float64(c.dramLoads), "count"}
	layers["cache.l1_hit_rate"] = metric{ratio(float64(c.l1Hits), float64(c.l1Accesses)), "fraction"}
	layers["cache.l2_hit_rate"] = metric{ratio(float64(c.l2Hits), float64(c.l2Accesses)), "fraction"}
	layers["cache.l2_misses"] = metric{float64(c.l2Accesses - c.l2Hits), "count"}
	layers["sim.cycles"] = metric{float64(c.cycles), "cycles"}
	layers["sim.instructions"] = metric{float64(c.instructions), "count"}
	layers["sim.host_ns_per_kcycle"] = metric{ratio(float64(c.hostNs), float64(c.cycles)/1000), "ns/kcycle"}
}

// modelCell is one cell's modelled fairness and throughput.
type modelCell struct {
	policy         sim.PolicyKind
	unfairness, ws float64
}

// model computes one run's memory slowdowns, unfairness and weighted
// speedup against alone runs of its threads, which aloneOf looks up, and
// fails non-finite ones.
func model(pol sim.PolicyKind, threads []sim.ThreadResult, aloneOf func(i int, th sim.ThreadResult) (sim.ThreadResult, error)) (modelCell, error) {
	var sharedMCPI, aloneMCPI, sharedIPC, aloneIPC []float64
	for i, th := range threads {
		a, err := aloneOf(i, th)
		if err != nil {
			return modelCell{}, err
		}
		sharedMCPI = append(sharedMCPI, th.MCPI)
		aloneMCPI = append(aloneMCPI, a.MCPI)
		sharedIPC = append(sharedIPC, th.IPC)
		aloneIPC = append(aloneIPC, a.IPC)
	}
	sd := metrics.MemSlowdowns(sharedMCPI, aloneMCPI)
	m := modelCell{pol, metrics.Unfairness(sd), metrics.WeightedSpeedup(sharedIPC, aloneIPC)}
	if !finite(append(sd, m.unfairness, m.ws)...) {
		return m, fmt.Errorf("non-finite slowdown %v", sd)
	}
	return m, nil
}

// setModel writes model.unfairness_gmean.<policy> and
// model.weighted_speedup_gmean.<policy> for the five paper schedulers;
// a scheduler the workload does not run reads 0.
func setModel(layers metricSet, cells []modelCell) {
	for _, pol := range sim.AllPolicies() {
		var unf, ws []float64
		for _, c := range cells {
			if c.policy == pol {
				unf = append(unf, c.unfairness)
				ws = append(ws, c.ws)
			}
		}
		key := policyKey(pol)
		layers["model.unfairness_gmean."+key] = metric{metrics.GeoMean(unf), "ratio"}
		layers["model.weighted_speedup_gmean."+key] = metric{metrics.GeoMean(ws), "ratio"}
	}
}

// policyKey turns a policy name into a metric-name suffix: "FRFCFS+Cap"
// becomes "frfcfs_cap".
func policyKey(p sim.PolicyKind) string {
	r := strings.NewReplacer("-", "", "+", "_")
	return strings.ToLower(r.Replace(string(p)))
}
