package main

import (
	"context"
	"fmt"
	"time"

	"stfm/internal/sim"
	"stfm/internal/trace"
)

// cache8 is an 8-core, 2-channel system with the L1/L2 hierarchy on,
// driven through sim.NewSystem and System.RunContext. Each core runs a
// trace.CacheStream whose hot set fits L1, fits L2 or, for a minority of
// cores, exceeds L2; the assignment rotates per cell, and each cell runs
// under FR-FCFS or STFM. Slowdowns are computed against the workload's
// own alone runs (one per distinct stream, in the same 2-channel memory
// system), because the Runner's alone runs use direct mode.

// cacheKinds are the hot-set sizes: 256 lines fit the 512-line L1, 6000
// lines fit the 8192-line L2, 24000 lines exceed it.
var cacheKinds = []trace.CacheWorkload{
	{Name: "l1fit", HotLines: 256, HotFraction: 0.95, ColdLines: 100_000, StoreFraction: 0.2, Gap: 8},
	{Name: "l2fit", HotLines: 6000, HotFraction: 0.95, ColdLines: 100_000, StoreFraction: 0.2, Gap: 8},
	{Name: "overl2", HotLines: 24_000, HotFraction: 0.95, ColdLines: 100_000, StoreFraction: 0.2, Gap: 8},
}

// cachePattern assigns a kind to each of the eight cores before
// rotation; two cores exceed L2.
var cachePattern = [8]int{0, 1, 0, 1, 0, 1, 2, 2}

const cacheCores = 8

var cachePolicies = []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM}

// cacheCell is one cell: a rotation of the pattern under a policy.
type cacheCell struct {
	rot int
	pol sim.PolicyKind
}

func (c cacheCell) String() string { return fmt.Sprintf("rot%d/%s", c.rot, c.pol) }

func cacheCells() []cacheCell {
	var cells []cacheCell
	for rot := 0; rot < cacheCores; rot++ {
		for _, pol := range cachePolicies {
			cells = append(cells, cacheCell{rot, pol})
		}
	}
	return cells
}

// streamKey identifies a distinct stream: its kind and core, which
// offsets its address space.
type streamKey struct{ kind, core int }

func cellKeys(c cacheCell) []streamKey {
	keys := make([]streamKey, cacheCores)
	for i := range keys {
		keys[i] = streamKey{cachePattern[(i+c.rot)%cacheCores], i}
	}
	return keys
}

// cacheProfile labels a stream; cache-mode profiles only name threads.
func cacheProfile(k streamKey) trace.Profile {
	p, _ := trace.ByName("mcf")
	p.Name = fmt.Sprintf("%s.%d", cacheKinds[k.kind].Name, k.core)
	return p
}

// cacheConfig builds the configuration of a run over the keys' streams.
func cacheConfig(b *bench, pol sim.PolicyKind, keys []streamKey) (sim.Config, []trace.Profile, error) {
	cfg := sim.DefaultConfig(pol, len(keys))
	cfg.Channels = 2
	cfg.InstrTarget = b.scale.Instr
	cfg.Seed = b.seed
	cfg.UseCaches = true
	var profs []trace.Profile
	for _, k := range keys {
		s, err := trace.NewCacheStream(cacheKinds[k.kind], k.core, b.seed)
		if err != nil {
			return cfg, nil, err
		}
		cfg.Streams = append(cfg.Streams, s)
		profs = append(profs, cacheProfile(k))
	}
	return cfg, profs, nil
}

func buildCell(b *bench, c cacheCell) (*sim.System, error) {
	cfg, profs, err := cacheConfig(b, c.pol, cellKeys(c))
	if err != nil {
		return nil, err
	}
	return sim.NewSystem(cfg, profs)
}

// cacheSetup runs one alone run per distinct stream and builds every
// cell's System.
func cacheSetup(ctx context.Context, b *bench, out *outcome, cells []cacheCell) (map[streamKey]sim.ThreadResult, []*sim.System, float64, error) {
	sp := b.spans.begin(0, "setup", "")
	defer b.spans.end(sp)
	t0 := time.Now()
	var keys []streamKey
	for kind := range cacheKinds {
		for core := 0; core < cacheCores; core++ {
			keys = append(keys, streamKey{kind, core})
		}
	}
	results := make([]sim.ThreadResult, len(keys))
	errs := make([]error, len(keys))
	forEach(len(keys), func(i int) {
		name := cacheProfile(keys[i]).Name
		s := b.spans.begin(sp, "alone", name)
		defer b.spans.end(s)
		cfg, profs, err := cacheConfig(b, sim.PolicyFRFCFS, keys[i:i+1])
		if err != nil {
			errs[i] = err
			return
		}
		res, err := sim.RunContext(ctx, cfg, profs)
		if err == nil {
			err = checkThreads(res)
		}
		if err != nil {
			errs[i] = fmt.Errorf("alone %s: %w", name, err)
			return
		}
		results[i] = res.Threads[0]
	})
	out.opErrs(errs)
	alone := map[streamKey]sim.ThreadResult{}
	for i, k := range keys {
		alone[k] = results[i]
	}
	systems := make([]*sim.System, len(cells))
	for i, c := range cells {
		var err error
		if systems[i], err = buildCell(b, c); err != nil {
			return nil, nil, 0, err
		}
	}
	return alone, systems, since(t0), nil
}

// cacheModel computes one cell's slowdowns against the alone runs.
func cacheModel(c cacheCell, res *sim.Result, alone map[streamKey]sim.ThreadResult) (modelCell, error) {
	keys := cellKeys(c)
	return model(c.pol, res.Threads, func(i int, _ sim.ThreadResult) (sim.ThreadResult, error) {
		return alone[keys[i]], nil
	})
}

func runCache8(ctx context.Context, b *bench) (*outcome, error) {
	out := newOutcome()
	cells := cacheCells()
	var alone map[streamKey]sim.ThreadResult
	var systems []*sim.System
	var setupS []float64
	for k := 0; k < b.setups(); k++ {
		var d float64
		var err error
		if alone, systems, d, err = cacheSetup(ctx, b, out, cells); err != nil {
			return nil, err
		}
		setupS = append(setupS, d)
		b.setupRef.block()
	}

	// The first run of each cell uses the System set-up built; repeats
	// build their own.
	models := make([]modelCell, len(cells))
	res, lat, wall := streamCells(out, b.ref, len(cells)*b.passes(), len(cells), func(i int) (*sim.Result, error) {
		c := cells[i%len(cells)]
		var sys *sim.System
		var err error
		if i < len(cells) {
			sys, systems[i] = systems[i], nil
		} else if sys, err = buildCell(b, c); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		r, err := sys.RunContext(ctx)
		if err == nil {
			err = checkThreads(r)
		}
		var m modelCell
		if err == nil {
			m, err = cacheModel(c, r, alone)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		if i < len(cells) {
			models[i] = m
		}
		return r, nil
	})
	if !b.traced {
		batchMetrics(out, setupS, len(cells), res, lat, wall)
		return out, nil
	}

	err := tracedCells(ctx, b, out, res, wall, func(i int) (string, sim.Config, []trace.Profile, error) {
		cfg, profs, err := cacheConfig(b, cells[i].pol, cellKeys(cells[i]))
		return cells[i].String(), cfg, profs, err
	})
	if err != nil {
		return nil, err
	}
	layers := out.layers
	// cache8 bypasses experiments: its alone runs are its own.
	layers["experiments.alone_s"] = metric{0, "s"}
	layers["experiments.alone_runs"] = metric{0, "count"}
	layers["experiments.baseline_hits"] = metric{0, "count"}
	layers["experiments.baseline_misses"] = metric{0, "count"}
	setModel(layers, models)
	return out, nil
}
