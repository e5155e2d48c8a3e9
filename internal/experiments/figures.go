package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"stfm/internal/core"
	"stfm/internal/dram"
	"stfm/internal/metrics"
	"stfm/internal/sim"
	"stfm/internal/trace"
	"stfm/internal/workloads"
)

// Report is the textual result of one experiment, printable by the
// cmd/stfm-experiments tool and recorded in EXPERIMENTS.md.
type Report struct {
	ID    string
	Title string
	Lines []string
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) (*Report, error)
}

// All returns every experiment in paper order. full selects the
// complete workload sweeps (256 4-core mixes etc.); otherwise reduced
// subsets keep runtimes interactive.
func All(full bool) []Experiment {
	n4, n8, nT5 := 24, 8, 4
	if full {
		n4, n8, nT5 = 256, 32, 8
	}
	return []Experiment{
		{"table3", "Benchmark characteristics (alone-run calibration)", Table3},
		{"fig1", "Memory slowdowns under FR-FCFS on 4- and 8-core systems", Fig1},
		{"fig5", "2-core: mcf with every other benchmark, FR-FCFS vs STFM", Fig5},
		{"fig6", "Case study I: memory-intensive 4-core workload", caseStudy("fig6", "mcf", "libquantum", "GemsFDTD", "astar")},
		{"fig7", "Case study II: mixed 4-core workload", caseStudy("fig7", "mcf", "leslie3d", "h264ref", "bzip2")},
		{"fig8", "Case study III: non-memory-intensive 4-core workload", caseStudy("fig8", "libquantum", "omnetpp", "hmmer", "h264ref")},
		{"fig9", "4-core averages over category-combination workloads", averages("fig9", 4, n4)},
		{"fig10", "8-core non-intensive case study", caseStudy("fig10", "mcf", "h264ref", "bzip2", "gromacs", "gobmk", "dealII", "wrf", "namd")},
		{"fig11", "8-core averages over diverse workloads", averages("fig11", 8, n8)},
		{"fig12", "16-core workloads", Fig12},
		{"fig13", "Desktop application workload", caseStudyMix("fig13", workloads.Desktop())},
		{"fig14", "Thread weight enforcement (STFM weights vs NFQ shares)", Fig14},
		{"fig15", "Sensitivity to the alpha threshold", Fig15},
		{"table5", "Sensitivity to DRAM banks and row-buffer size", table5(nT5)},
		{"parbs", "Extension: PAR-BS and TCM (the STFM follow-up line) vs the paper's schedulers", ParbsExtension},
		{"estimator", "Diagnostic: STFM slowdown-estimate accuracy", EstimatorAccuracy},
		{"seeds", "Diagnostic: seed sensitivity of the headline result", MultiSeed},
	}
}

// ParbsExtension compares the follow-up schedulers implemented as the
// future-work extension — PAR-BS (ISCA 2008) and a simplified TCM
// (MICRO 2010) — against FR-FCFS and STFM on the three 4-core case
// studies. PAR-BS typically lands between the two: close to STFM's
// fairness with more of FR-FCFS's throughput, by construction (batches
// bound starvation; shortest-job ranking preserves bank parallelism).
// TCM hard-protects the latency-sensitive cluster at the expense of
// the intensive threads' slowdowns.
func ParbsExtension(r *Runner) (*Report, error) {
	rep := &Report{ID: "parbs", Title: "Follow-up schedulers on the 4-core case studies"}
	cases := [][]string{
		{"mcf", "libquantum", "GemsFDTD", "astar"},
		{"mcf", "leslie3d", "h264ref", "bzip2"},
		{"libquantum", "omnetpp", "hmmer", "h264ref"},
	}
	rep.addf("%-45s | %-9s | %6s | %6s %6s", "workload", "policy", "unfair", "WS", "hmean")
	for _, names := range cases {
		profs, err := Profiles(names...)
		if err != nil {
			return nil, err
		}
		for _, pol := range []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM, sim.PolicyPARBS, sim.PolicyTCM} {
			wr, err := r.RunWorkload(pol, profs, nil)
			if err != nil {
				return nil, err
			}
			rep.addf("%-45s | %-9s | %6.2f | %6.2f %6.3f",
				strings.Join(names, ","), pol, wr.Unfairness, wr.WeightedSpeedup, wr.HmeanSpeedup)
		}
	}
	return rep, nil
}

// ByID finds an experiment by its identifier.
func ByID(id string, full bool) (Experiment, error) {
	for _, e := range All(full) {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Table3 reruns every benchmark alone and reports measured vs paper
// characteristics (Table 3, Section 6.3's benchmark calibration).
func Table3(r *Runner) (*Report, error) {
	rep := &Report{ID: "table3", Title: "Benchmark characteristics when run alone (measured vs paper)"}
	rep.addf("%-18s %10s %10s %10s %10s %8s %8s", "benchmark", "MCPI", "paperMCPI", "MPKI", "paperMPKI", "RBhit", "paperRB")
	for _, p := range append(trace.SPEC2006(), trace.Desktop()...) {
		alone, err := r.Alone(p, 1)
		if err != nil {
			return nil, err
		}
		mpki := float64(alone.DRAMReads) / float64(alone.Instructions) * 1000
		rep.addf("%-18s %10.2f %10.2f %10.1f %10.1f %8.3f %8.3f",
			p.Name, alone.MCPI, p.PaperMCPI, mpki, p.MPKI, alone.RowHitRate, p.RowHit)
	}
	return rep, nil
}

// Fig1 reports the per-thread slowdowns of the motivation figure
// (Figure 1, Section 2.2) under FR-FCFS.
func Fig1(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig1", Title: "Normalized memory stall time under FR-FCFS"}
	for _, mix := range []struct {
		label string
		names []string
	}{
		{"4-core", []string{"hmmer", "libquantum", "h264ref", "omnetpp"}},
		{"8-core", []string{"mcf", "hmmer", "GemsFDTD", "libquantum", "omnetpp", "astar", "sphinx3", "dealII"}},
	} {
		profs, err := Profiles(mix.names...)
		if err != nil {
			return nil, err
		}
		wr, err := r.RunWorkload(sim.PolicyFRFCFS, profs, nil)
		if err != nil {
			return nil, err
		}
		rep.addf("%s system:", mix.label)
		for i, n := range mix.names {
			rep.addf("  %-12s slowdown %6.2f", n, wr.Slowdowns[i])
		}
		rep.addf("  unfairness %.2f", wr.Unfairness)
	}
	return rep, nil
}

// Fig5 pairs mcf with every other benchmark under FR-FCFS and STFM
// (Figure 5, Section 7.1's 2-core sweep).
func Fig5(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig5", Title: "2-core: mcf + X under FR-FCFS and STFM"}
	rep.addf("%-14s | %8s %8s %6s | %8s %8s %6s | %7s %7s", "other", "frf:mcf", "frf:X", "unf", "stfm:mcf", "stfm:X", "unf", "dWS%", "dHS%")
	type row struct {
		unfF, unfS, wsF, wsS, hsF, hsS float64
	}
	var agg []row
	pairs := workloads.TwoCorePairs()
	results, err := r.RunMatrix(pairs, []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM}, nil)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	for i, mix := range pairs {
		f := results[i][sim.PolicyFRFCFS]
		s := results[i][sim.PolicySTFM]
		if f == nil || s == nil {
			return nil, fmt.Errorf("fig5: missing result for %s", mix.Name)
		}
		rep.addf("%-14s | %8.2f %8.2f %6.2f | %8.2f %8.2f %6.2f | %6.1f%% %6.1f%%",
			mix.Profiles[1].Name,
			f.Slowdowns[0], f.Slowdowns[1], f.Unfairness,
			s.Slowdowns[0], s.Slowdowns[1], s.Unfairness,
			pct(s.WeightedSpeedup, f.WeightedSpeedup), pct(s.HmeanSpeedup, f.HmeanSpeedup))
		agg = append(agg, row{f.Unfairness, s.Unfairness, f.WeightedSpeedup, s.WeightedSpeedup, f.HmeanSpeedup, s.HmeanSpeedup})
	}
	var uF, uS, wF, wS, hF, hS []float64
	for _, a := range agg {
		uF, uS = append(uF, a.unfF), append(uS, a.unfS)
		wF, wS = append(wF, a.wsF), append(wS, a.wsS)
		hF, hS = append(hF, a.hsF), append(hS, a.hsS)
	}
	rep.addf("GMEAN unfairness: FR-FCFS %.2f -> STFM %.2f (reduction %.0f%%)",
		metrics.GeoMean(uF), metrics.GeoMean(uS), metrics.UnfairnessReduction(metrics.GeoMean(uF), metrics.GeoMean(uS)))
	rep.addf("GMEAN weighted speedup: %+.1f%%; hmean speedup: %+.1f%%",
		pct(metrics.GeoMean(wS), metrics.GeoMean(wF)), pct(metrics.GeoMean(hS), metrics.GeoMean(hF)))
	return rep, nil
}

func pct(after, before float64) float64 {
	if before == 0 {
		return 0
	}
	return (after/before - 1) * 100
}

// caseStudy builds an Experiment runner for one named workload across
// all five schedulers.
func caseStudy(id string, names ...string) func(*Runner) (*Report, error) {
	return func(r *Runner) (*Report, error) {
		profs, err := Profiles(names...)
		if err != nil {
			return nil, err
		}
		return caseStudyReport(r, id, profs)
	}
}

func caseStudyMix(id string, mix workloads.Mix) func(*Runner) (*Report, error) {
	return func(r *Runner) (*Report, error) {
		return caseStudyReport(r, id, mix.Profiles)
	}
}

func caseStudyReport(r *Runner, id string, profs []trace.Profile) (*Report, error) {
	rep := &Report{ID: id, Title: "Workload: " + strings.Join(trace.Names(profs), ", ")}
	rep.addf("%-11s | %-40s | %6s | %6s %7s %6s", "scheduler", "slowdowns", "unfair", "WS", "sumIPC", "hmean")
	for _, pol := range sim.AllPolicies() {
		wr, err := r.RunWorkload(pol, profs, nil)
		if err != nil {
			return nil, err
		}
		var sl []string
		for _, s := range wr.Slowdowns {
			sl = append(sl, fmt.Sprintf("%.2f", s))
		}
		rep.addf("%-11s | %-40s | %6.2f | %6.2f %7.2f %6.3f",
			pol, strings.Join(sl, " "), wr.Unfairness, wr.WeightedSpeedup, wr.SumIPC, wr.HmeanSpeedup)
	}
	return rep, nil
}

// averages runs the n-core category-combination sweep and reports
// per-policy geometric means plus the sample workloads.
func averages(id string, cores, count int) func(*Runner) (*Report, error) {
	return func(r *Runner) (*Report, error) {
		var mixes []workloads.Mix
		var samples []workloads.Mix
		switch cores {
		case 4:
			mixes = workloads.FourCoreMixes()
			samples = workloads.SampleFourCore()
		case 8:
			mixes = workloads.EightCoreMixes()
			samples = workloads.SampleEightCore()
		default:
			return nil, fmt.Errorf("averages: unsupported core count %d", cores)
		}
		if count < len(mixes) {
			mixes = subsample(mixes, count)
		}
		rep := &Report{ID: id, Title: fmt.Sprintf("%d-core: %d sample workloads + averages over %d mixes", cores, len(samples), len(mixes))}

		rep.addf("%-12s | %s", "sample", policyHeader("unfairness"))
		sampleRes, err := r.RunMatrix(samples, sim.AllPolicies(), nil)
		if err != nil {
			return nil, fmt.Errorf("%s samples: %w", id, err)
		}
		for i, mix := range samples {
			rep.addf("%-12s | %s", mix.Name, policyRow(sampleRes[i], func(w *WorkloadResult) float64 { return w.Unfairness }))
		}

		res, err := r.RunMatrix(mixes, sim.AllPolicies(), nil)
		if err != nil {
			return nil, fmt.Errorf("%s sweep: %w", id, err)
		}
		gm := func(f func(*WorkloadResult) float64) string {
			var cols []string
			for _, pol := range sim.AllPolicies() {
				var vals []float64
				for i := range mixes {
					if w := res[i][pol]; w != nil {
						vals = append(vals, f(w))
					}
				}
				cols = append(cols, fmt.Sprintf("%10.3f", metrics.GeoMean(vals)))
			}
			return strings.Join(cols, " ")
		}
		rep.addf("")
		rep.addf("%-24s | %s", "GMEAN over mixes", policyHeader(""))
		rep.addf("%-24s | %s", "unfairness", gm(func(w *WorkloadResult) float64 { return w.Unfairness }))
		rep.addf("%-24s | %s", "weighted speedup", gm(func(w *WorkloadResult) float64 { return w.WeightedSpeedup }))
		rep.addf("%-24s | %s", "sum of IPCs", gm(func(w *WorkloadResult) float64 { return w.SumIPC }))
		rep.addf("%-24s | %s", "hmean speedup", gm(func(w *WorkloadResult) float64 { return w.HmeanSpeedup }))
		return rep, nil
	}
}

func subsample(mixes []workloads.Mix, n int) []workloads.Mix {
	if n >= len(mixes) {
		return mixes
	}
	out := make([]workloads.Mix, 0, n)
	stride := float64(len(mixes)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, mixes[int(float64(i)*stride)])
	}
	return out
}

func policyHeader(label string) string {
	var cols []string
	for _, pol := range sim.AllPolicies() {
		cols = append(cols, fmt.Sprintf("%10s", pol))
	}
	s := strings.Join(cols, " ")
	if label != "" {
		s += "   (" + label + ")"
	}
	return s
}

func policyRow(m map[sim.PolicyKind]*WorkloadResult, f func(*WorkloadResult) float64) string {
	var cols []string
	for _, pol := range sim.AllPolicies() {
		if w := m[pol]; w != nil {
			cols = append(cols, fmt.Sprintf("%10.3f", f(w)))
		} else {
			cols = append(cols, fmt.Sprintf("%10s", "-"))
		}
	}
	return strings.Join(cols, " ")
}

// RunMatrix runs every (mix, policy) pair with a small worker pool,
// returning results indexed by mix then policy. Failed pairs leave a
// nil entry AND contribute to the returned error (joined across jobs,
// each annotated with its mix and policy); earlier versions silently
// dropped the error, so a mis-parameterized sweep rendered as a grid
// of "-" cells with no indication why. Callers that can tolerate
// partial results may inspect the matrix alongside the error.
//
// Alone baselines need no pre-warming: Runner.Alone is singleflight per
// baseline key, so concurrent cells that race on the same denominator
// block on a single compute instead of duplicating it. A fork-shaped
// matrix (an FR-FCFS warm-up, then each policy) is a mutate that sets
// ForkAtCycle and WarmupPolicy; each of its cells runs its own warm-up.
func (r *Runner) RunMatrix(mixes []workloads.Mix, policies []sim.PolicyKind, mutate func(*sim.Config)) ([]map[sim.PolicyKind]*WorkloadResult, error) {
	out := make([]map[sim.PolicyKind]*WorkloadResult, len(mixes))
	for i := range out {
		out[i] = make(map[sim.PolicyKind]*WorkloadResult, len(policies))
	}
	type job struct {
		mix int
		pol sim.PolicyKind
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var errs []error
	workers := runtime.GOMAXPROCS(0)
	// runCell isolates one matrix cell: a panic anywhere inside the
	// run (a scheduler bug, a bad mutate) is recovered into a JobError
	// with the goroutine stack, so the worker — and with it every other
	// queued cell — survives.
	runCell := func(j job) (wr *WorkloadResult, err error) {
		defer func() {
			if v := recover(); v != nil {
				wr = nil
				err = &JobError{
					Mix: mixes[j.mix].Name, Policy: j.pol,
					Err: fmt.Errorf("panic: %v", v), Stack: debug.Stack(),
				}
			}
		}()
		wr, err = r.RunWorkload(j.pol, mixes[j.mix].Profiles, mutate)
		if err != nil {
			err = &JobError{Mix: mixes[j.mix].Name, Policy: j.pol, Err: err}
		}
		return wr, err
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				wr, err := runCell(j)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					out[j.mix][j.pol] = wr
				}
				mu.Unlock()
			}
		}()
	}
	for i := range mixes {
		for _, pol := range policies {
			jobs <- job{i, pol}
		}
	}
	close(jobs)
	wg.Wait()
	return out, errors.Join(errs...)
}

func channelsForMix(r *Runner, cores int) int {
	if r.opts.Channels != 0 {
		return r.opts.Channels
	}
	return sim.ProtocolChannels(r.opts.Protocol, cores)
}

// Fig12 runs the three 16-core workloads across all policies
// (Figure 12, Section 7.3's scalability result).
func Fig12(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig12", Title: "16-core workloads"}
	mixes := workloads.SixteenCoreMixes()
	res, err := r.RunMatrix(mixes, sim.AllPolicies(), nil)
	if err != nil {
		return nil, fmt.Errorf("fig12: %w", err)
	}
	rep.addf("%-12s | %s", "workload", policyHeader("unfairness"))
	for i, mix := range mixes {
		rep.addf("%-12s | %s", mix.Name, policyRow(res[i], func(w *WorkloadResult) float64 { return w.Unfairness }))
	}
	rep.addf("%-12s | %s", "(wspeedup)", policyHeader(""))
	for i, mix := range mixes {
		rep.addf("%-12s | %s", mix.Name, policyRow(res[i], func(w *WorkloadResult) float64 { return w.WeightedSpeedup }))
	}
	return rep, nil
}

// Fig14 evaluates thread-weight enforcement: STFM weights vs NFQ
// bandwidth shares on the 4-core mix of Section 7.5.
func Fig14(r *Runner) (*Report, error) {
	profs, err := Profiles("libquantum", "cactusADM", "astar", "omnetpp")
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig14", Title: "Thread weights on libquantum, cactusADM, astar, omnetpp"}
	for _, weights := range [][]float64{{1, 16, 1, 1}, {1, 4, 8, 1}} {
		rep.addf("weights %v:", weights)
		base, err := r.RunWorkload(sim.PolicyFRFCFS, profs, nil)
		if err != nil {
			return nil, err
		}
		rep.addf("  %-22s slowdowns=%s", "FR-FCFS (unaware)", fmtSlice(base.Slowdowns))
		w := weights
		nfq, err := r.RunWorkload(sim.PolicyNFQ, profs, func(c *sim.Config) { c.NFQWeights = w })
		if err != nil {
			return nil, err
		}
		rep.addf("  %-22s slowdowns=%s equal-pri-unfairness=%.2f", "NFQ shares", fmtSlice(nfq.Slowdowns), equalPriorityUnfairness(nfq.Slowdowns, w))
		stfm, err := r.RunWorkload(sim.PolicySTFM, profs, func(c *sim.Config) {
			c.STFM = core.DefaultConfig()
			c.STFM.Weights = w
		})
		if err != nil {
			return nil, err
		}
		rep.addf("  %-22s slowdowns=%s equal-pri-unfairness=%.2f", "STFM weights", fmtSlice(stfm.Slowdowns), equalPriorityUnfairness(stfm.Slowdowns, w))
	}
	return rep, nil
}

// equalPriorityUnfairness is the unfairness among the equal-weight
// threads only (the paper's Figure 14 reports exactly this).
func equalPriorityUnfairness(slowdowns []float64, weights []float64) float64 {
	// Group threads by weight; report the worst intra-group ratio of
	// the most common weight class.
	groups := map[float64][]float64{}
	for i, w := range weights {
		groups[w] = append(groups[w], slowdowns[i])
	}
	var best []float64
	for _, g := range groups {
		if len(g) > len(best) {
			best = g
		}
	}
	return metrics.Unfairness(best)
}

func fmtSlice(v []float64) string {
	var parts []string
	for _, x := range v {
		parts = append(parts, fmt.Sprintf("%.2f", x))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Fig15 sweeps the alpha threshold on the intensive 4-core mix
// (Figure 15, Section 7.6's sensitivity analysis).
func Fig15(r *Runner) (*Report, error) {
	profs, err := Profiles("mcf", "libquantum", "GemsFDTD", "astar")
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig15", Title: "Alpha sensitivity on the intensive 4-core workload"}
	rep.addf("%-10s %10s %10s %10s %10s", "alpha", "unfairness", "wspeedup", "sumIPC", "hmean")
	for _, alpha := range []float64{1.0, 1.05, 1.1, 1.2, 2, 5, 20} {
		a := alpha
		wr, err := r.RunWorkload(sim.PolicySTFM, profs, func(c *sim.Config) {
			c.STFM = core.DefaultConfig()
			c.STFM.Alpha = a
		})
		if err != nil {
			return nil, err
		}
		rep.addf("%-10.2f %10.2f %10.2f %10.2f %10.3f", alpha, wr.Unfairness, wr.WeightedSpeedup, wr.SumIPC, wr.HmeanSpeedup)
	}
	base, err := r.RunWorkload(sim.PolicyFRFCFS, profs, nil)
	if err != nil {
		return nil, err
	}
	rep.addf("%-10s %10.2f %10.2f %10.2f %10.3f", "FR-FCFS", base.Unfairness, base.WeightedSpeedup, base.SumIPC, base.HmeanSpeedup)
	return rep, nil
}

// table5 sweeps bank count and row-buffer size on 8-core mixes,
// comparing FR-FCFS and STFM (paper Table 5).
func table5(mixCount int) func(*Runner) (*Report, error) {
	return func(r *Runner) (*Report, error) {
		rep := &Report{ID: "table5", Title: "Sensitivity to DRAM banks and row-buffer size (8-core)"}
		mixes := subsample(workloads.EightCoreMixes(), mixCount)
		rep.addf("%-22s | %-9s | %10s %10s | %10s %10s", "config", "policy", "unfairness", "", "wspeedup", "")
		type cfgCase struct {
			label string
			geom  dram.Geometry
		}
		var cases []cfgCase
		for _, banks := range []int{4, 8, 16} {
			g := dram.DefaultGeometry(2)
			g.BanksPerChannel = banks
			cases = append(cases, cfgCase{fmt.Sprintf("banks=%d rb=2KB", banks), g})
		}
		for _, rbKB := range []int{1, 4} { // 2KB covered by banks=8 row
			g := dram.DefaultGeometry(2)
			g.RowBufferBytes = rbKB * 1024 * 8 // per-chip KB x 8 chips
			cases = append(cases, cfgCase{fmt.Sprintf("banks=8 rb=%dKB", rbKB), g})
		}
		for _, cs := range cases {
			geom := cs.geom
			// Sub-runners share the parent's baseline store: each
			// geometry's alone runs are keyed by their own fingerprint,
			// so sharing only deduplicates, never cross-contaminates.
			sub := NewRunner(Options{
				InstrTarget: r.opts.InstrTarget,
				MinMisses:   r.opts.MinMisses,
				Seed:        r.opts.Seed,
				Geometry:    &geom,
				Baseline:    r.baseline,
			})
			res, err := sub.RunMatrix(mixes, []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM}, nil)
			if err != nil {
				return nil, fmt.Errorf("table5 %s: %w", cs.label, err)
			}
			for _, pol := range []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM} {
				var unf, ws []float64
				for i := range mixes {
					if w := res[i][pol]; w != nil {
						unf = append(unf, w.Unfairness)
						ws = append(ws, w.WeightedSpeedup)
					}
				}
				rep.addf("%-22s | %-9s | %10.2f %10s | %10.2f %10s",
					cs.label, pol, metrics.GeoMean(unf), "", metrics.GeoMean(ws), "")
			}
		}
		return rep, nil
	}
}

// SortedIDs lists experiment ids alphabetically (for CLI help).
func SortedIDs() []string {
	var ids []string
	for _, e := range All(false) {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
