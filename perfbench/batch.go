package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"stfm/internal/sim"
	"stfm/internal/trace"
)

// The batch workloads (paper4, cache8) time one stream of cell runs: the
// workload's cells repeated b.passes() times and fed to the worker pool
// as a single stream, so the pool's tail (one worker idle while the
// other finishes the last cell) occurs once per run, not once per pass.

// streamCells runs n cells on the worker pool; cell i repeats cell
// i mod period, and every repeat must equal that cell's first run. It
// returns each cell's result and latency and the stream's wall time.
// Each cell is preceded by a host-speed reference chunk.
func streamCells(out *outcome, ref *hostRef, n, period int, run func(i int) (*sim.Result, error)) ([]*sim.Result, []float64, float64) {
	res := make([]*sim.Result, n)
	lat := make([]float64, n)
	errs := make([]error, n)
	t0 := time.Now()
	forEach(n, func(i int) {
		ref.chunk()
		t := time.Now()
		res[i], errs[i] = run(i)
		lat[i] = since(t)
	})
	wall := since(t0)
	for i := period; i < n; i++ {
		if errs[i] == nil && errs[i%period] == nil && !reflect.DeepEqual(res[i], res[i%period]) {
			errs[i] = fmt.Errorf("cell %d differs from its first run", i%period)
		}
	}
	out.opErrs(errs)
	return res, lat, wall
}

// batchMetrics sets a batch stream's end-to-end metrics; the digest
// covers the first run of each of the period's cells.
func batchMetrics(out *outcome, setupS []float64, period int, res []*sim.Result, lat []float64, wall float64) {
	var instrs int64
	for _, r := range res {
		if r != nil {
			instrs += instructions(r)
		}
	}
	out.digest = digestOf(res[:period])
	out.metrics["setup_s"] = metric{median(setupS), "s"}
	out.metrics["sim_minstr_per_s"] = metric{float64(instrs) / wall / 1e6, "Minstr/s"}
	out.metrics["jobs_per_s"] = metric{float64(len(res)) / wall, "jobs/s"}
	latencyMetrics(out, lat)
	out.info["cells"] = len(res)
	out.info["setup_samples_s"] = setupS
}

// tracedCells runs the cells again under a CPU profile, building each
// with sim.NewSystem and running it with System.RunContext, with a span
// around each call. Each result must equal want[i], the untraced run of
// the same cell. It sets the profile, accessor and runtime per-layer
// metrics and the trace overhead against the untraced wall time.
func tracedCells(ctx context.Context, b *bench, out *outcome, want []*sim.Result, untracedWall float64,
	cell func(i int) (name string, cfg sim.Config, profs []trace.Profile, err error)) error {
	prof, err := startCPUProfile(filepath.Join(b.outDir, "cpu.pprof"))
	if err != nil {
		return err
	}
	var counters simCounters
	errs := make([]error, len(want))
	before := allocSnapshot()
	pass := b.spans.begin(0, "pass", "traced")
	t0 := time.Now()
	forEach(len(want), func(i int) {
		b.ref.chunk()
		name, cfg, profs, err := cell(i)
		cs := b.spans.begin(pass, "cell", name)
		defer b.spans.end(cs)
		var got *sim.Result
		if err == nil {
			got, err = runCell(ctx, b, cs, &counters, cfg, profs)
		}
		if err == nil && !reflect.DeepEqual(got, want[i]) {
			err = errors.New("traced cell differs from the untraced run")
		}
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", name, err)
		}
	})
	tracedWall := since(t0)
	b.spans.end(pass)
	after := allocSnapshot()
	if err := prof.stop(); err != nil {
		return err
	}
	out.opErrs(errs)
	out.digest = digestOf(want)
	if err := profileShares(filepath.Join(b.outDir, "cpu.pprof"), out.layers); err != nil {
		return err
	}
	counters.set(out.layers)
	runtimeLayer(out.layers, before, after, counters.instructions)
	setServiceIdle(out.layers)
	out.layers["bench.trace_overhead"] = metric{tracedWall / untracedWall, "ratio"}
	return nil
}

// runCell builds and runs one simulation with a span around each public
// call and, when counters is non-nil, adds its accessor counts.
func runCell(ctx context.Context, b *bench, parent int, counters *simCounters, cfg sim.Config, profs []trace.Profile) (*sim.Result, error) {
	s := b.spans.begin(parent, "sim.NewSystem", "")
	sys, err := sim.NewSystem(cfg, profs)
	b.spans.end(s)
	if err != nil {
		return nil, err
	}
	s = b.spans.begin(parent, "System.RunContext", "")
	t0 := time.Now()
	res, err := sys.RunContext(ctx)
	host := time.Since(t0).Nanoseconds()
	b.spans.end(s)
	if err != nil {
		return nil, err
	}
	if counters != nil {
		counters.add(sys, res, host)
	}
	return res, checkThreads(res)
}

// checkThreads fails a Result with a truncated thread.
func checkThreads(res *sim.Result) error {
	for _, th := range res.Threads {
		if th.Truncated {
			return fmt.Errorf("thread %s truncated", th.Benchmark)
		}
	}
	return nil
}

func instructions(res *sim.Result) int64 {
	var n int64
	for _, th := range res.Threads {
		n += th.Instructions
	}
	return n
}

// setServiceIdle writes the service-only per-layer metrics as 0 for the
// batch workloads, which bypass the service.
func setServiceIdle(layers metricSet) {
	for _, name := range []string{"service.queue_wait_p50_s", "service.run_p50_s", "service.overhead_p50_s", "service.hit_latency_p50_s"} {
		layers[name] = metric{0, "s"}
	}
	for _, name := range []string{"service.cache_hits", "service.cache_misses", "service.journal_records", "service.checkpoint_writes"} {
		layers[name] = metric{0, "count"}
	}
	layers["service.journal_bytes"] = metric{0, "B"}
}
