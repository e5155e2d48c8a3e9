package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"stfm/internal/dram"
	"stfm/internal/experiments"
	"stfm/internal/sim"
	"stfm/internal/trace"
	"stfm/internal/workloads"
)

// paper4 is the Figure 9 matrix: the ten SampleFourCore mixes under the
// five paper schedulers, 50 cells, on DDR2 with one channel in direct
// mode. Each cell is one Runner.RunMatrix call over one mix and one
// policy, dispatched to two workers sharing one Runner, so that each
// cell's latency is observable; the shared Runner holds the alone
// baselines that set-up computed.

func paper4Options(b *bench) experiments.Options {
	return experiments.Options{
		InstrTarget: b.scale.Instr,
		MinMisses:   b.scale.MinMisses,
		Seed:        b.seed,
		Protocol:    dram.DDR2,
		Channels:    1,
	}
}

// paper4Config is the configuration Runner.RunWorkload builds for a cell.
func paper4Config(o experiments.Options, pol sim.PolicyKind) sim.Config {
	cfg := sim.DefaultConfig(pol, 4)
	cfg.InstrTarget = o.InstrTarget
	cfg.MinMisses = o.MinMisses
	cfg.Seed = o.Seed
	cfg.Protocol = o.Protocol
	cfg.Channels = o.Channels
	return cfg
}

// paper4Cell is one cell of the matrix.
type paper4Cell struct {
	mix workloads.Mix
	pol sim.PolicyKind
}

func paper4Cells() []paper4Cell {
	var cells []paper4Cell
	for _, m := range workloads.SampleFourCore() {
		for _, p := range sim.AllPolicies() {
			cells = append(cells, paper4Cell{m, p})
		}
	}
	return cells
}

// distinctProfiles lists each benchmark of the cells once, in order.
func distinctProfiles(cells []paper4Cell) []trace.Profile {
	seen := map[string]bool{}
	var out []trace.Profile
	for _, c := range cells {
		for _, p := range c.mix.Profiles {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// paper4Setup computes the cold alone-baseline fleet on a fresh Runner.
func paper4Setup(ctx context.Context, b *bench, out *outcome, profs []trace.Profile) (*experiments.Runner, float64) {
	sp := b.spans.begin(0, "setup", "")
	defer b.spans.end(sp)
	t0 := time.Now()
	r := experiments.NewRunnerContext(ctx, paper4Options(b))
	errs := make([]error, len(profs))
	forEach(len(profs), func(i int) {
		s := b.spans.begin(sp, "alone", profs[i].Name)
		_, errs[i] = r.Alone(profs[i], 1)
		b.spans.end(s)
	})
	d := since(t0)
	out.opErrs(errs)
	return r, d
}

// checkCell applies the correctness gate to one matrix cell.
func checkCell(c paper4Cell, wr *experiments.WorkloadResult, err error) error {
	if err == nil && (wr == nil || wr.Result == nil) {
		err = errors.New("no result")
	}
	if err == nil {
		err = checkThreads(wr.Result)
	}
	if err == nil && !finite(append(wr.Slowdowns, wr.Unfairness, wr.WeightedSpeedup)...) {
		err = fmt.Errorf("non-finite slowdown %v", wr.Slowdowns)
	}
	if err != nil {
		return fmt.Errorf("%s/%s: %w", c.mix.Name, c.pol, err)
	}
	return nil
}

func runPaper4(ctx context.Context, b *bench) (*outcome, error) {
	out := newOutcome()
	cells := paper4Cells()
	profs := distinctProfiles(cells)
	var r *experiments.Runner
	var setupS []float64
	for k := 0; k < b.setups(); k++ {
		var d float64
		r, d = paper4Setup(ctx, b, out, profs)
		setupS = append(setupS, d)
		b.setupRef.block()
	}
	aloneRuns := r.Baseline().Stats().Misses

	wrs := make([]*experiments.WorkloadResult, len(cells)*b.passes())
	res, lat, wall := streamCells(out, b.ref, len(wrs), len(cells), func(i int) (*sim.Result, error) {
		c := cells[i%len(cells)]
		m, err := r.RunMatrix([]workloads.Mix{c.mix}, []sim.PolicyKind{c.pol}, nil)
		if err == nil {
			wrs[i] = m[0][c.pol]
		}
		if err := checkCell(c, wrs[i], err); err != nil {
			return nil, err
		}
		return wrs[i].Result, nil
	})
	if !b.traced {
		batchMetrics(out, setupS, len(cells), res, lat, wall)
		return out, nil
	}

	// Traced: the same cells built with sim.NewSystem from the
	// configuration the Runner uses, so the accessors can be read; they
	// must equal the RunMatrix cells.
	base := r.Baseline().Stats()
	opts := paper4Options(b)
	err := tracedCells(ctx, b, out, res, wall, func(i int) (string, sim.Config, []trace.Profile, error) {
		c := cells[i]
		return c.mix.Name + "/" + string(c.pol), paper4Config(opts, c.pol), c.mix.Profiles, nil
	})
	if err != nil {
		return nil, err
	}
	layers := out.layers
	layers["experiments.alone_s"] = metric{setupS[0], "s"}
	layers["experiments.alone_runs"] = metric{float64(aloneRuns), "count"}
	layers["experiments.baseline_hits"] = metric{float64(base.Hits), "count"}
	layers["experiments.baseline_misses"] = metric{float64(base.Misses), "count"}
	var models []modelCell
	for _, wr := range wrs {
		if wr != nil {
			models = append(models, modelCell{wr.Policy, wr.Unfairness, wr.WeightedSpeedup})
		}
	}
	setModel(layers, models)
	return out, nil
}
