// Command stfm-experiments regenerates the tables and figures of the
// paper's evaluation (Section 7). Run with no flags to execute the
// whole suite at interactive scale, -full for the complete workload
// sweeps, or -run id[,id...] for specific experiments.
//
// SIGINT/SIGTERM interrupt the suite cleanly: the in-progress
// simulation aborts at its next event boundary, reports written so far
// stay on disk, partial telemetry is flushed, and the process exits
// with status 130.
//
// Usage:
//
//	stfm-experiments [-run fig6,fig9] [-full] [-instrs 200000] [-seed 1]
//	stfm-experiments -run fig6 -telemetry -telemetry-dir series/
//	stfm-experiments -full -pprof localhost:6060
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"stfm/internal/experiments"
	"stfm/internal/sim"
	"stfm/internal/store"
	"stfm/internal/telemetry"
)

func main() {
	var (
		run    = flag.String("run", "", "comma-separated experiment ids (default: all); known: "+strings.Join(experiments.SortedIDs(), ","))
		full   = flag.Bool("full", false, "run complete workload sweeps (256 4-core mixes, 32 8-core mixes)")
		instrs = flag.Int64("instrs", 200_000, "per-thread instruction budget")
		seed   = flag.Uint64("seed", 1, "workload generation seed")
		outDir = flag.String("o", "", "also write each report to <dir>/<id>.txt")

		baselineDir = flag.String("baseline-dir", "", "persistent alone-baseline store directory, shared across runs and tools (empty: memory-only)")

		useTel      = flag.Bool("telemetry", false, "attach a telemetry collector to every shared workload run")
		sampleEvery = flag.Int64("sample-every", 1000, "telemetry sampling interval in DRAM cycles")
		telDir      = flag.String("telemetry-dir", "", "write each run's time series as CSV into this directory (implies -telemetry)")
		pprof       = flag.String("pprof", "", "serve net/http/pprof and periodic runtime metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *telDir != "" {
		*useTel = true
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	baseline, err := store.Open(*baselineDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stfm-experiments:", err)
		os.Exit(1)
	}
	if *pprof != "" {
		stop, err := telemetry.ServeProfiling(*pprof, 10*time.Second, log.New(os.Stderr, "stfm-experiments: ", 0).Printf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stop()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.DefaultOptions()
	opts.InstrTarget = *instrs
	opts.Seed = *seed
	opts.Baseline = baseline
	if *useTel {
		opts.Telemetry = telemetry.Options{SampleEvery: *sampleEvery, TraceCap: telemetry.DefaultTraceCap}
	}
	runner := experiments.NewRunnerContext(ctx, opts)

	var list []experiments.Experiment
	if *run == "" {
		list = experiments.All(*full)
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id), *full)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			list = append(list, e)
		}
	}

	if code := runSuite(ctx, runner, list, *outDir, *telDir, *useTel, os.Stdout, os.Stderr); code != 0 {
		stop()
		os.Exit(code)
	}
}

// runSuite executes the experiments in order, printing and writing each
// report as it completes. When ctx is canceled (SIGINT/SIGTERM) it
// stops, flushes the telemetry collected so far — including the partial
// series of the interrupted run — and returns 130, the conventional
// fatal-SIGINT exit status. Other failures return 1; success returns 0.
func runSuite(ctx context.Context, runner *experiments.Runner, list []experiments.Experiment,
	outDir, telDir string, useTel bool, stdout, stderr io.Writer) int {
	for _, e := range list {
		start := time.Now()
		rep, err := e.Run(runner)
		if ctx.Err() != nil || errors.Is(err, sim.ErrCanceled) || errors.Is(err, sim.ErrDeadline) {
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			}
			if useTel {
				if derr := dumpTelemetry(runner, telDir, stdout); derr != nil {
					fmt.Fprintln(stderr, derr)
				}
			}
			fmt.Fprintln(stderr, "interrupted: partial telemetry flushed; completed reports were already written")
			return 130
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprint(stdout, rep.String())
		fmt.Fprintf(stdout, "(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		if outDir != "" {
			path := filepath.Join(outDir, e.ID+".txt")
			if err := os.WriteFile(path, []byte(rep.String()), 0o644); err != nil {
				fmt.Fprintf(stderr, "writing %s: %v\n", path, err)
				return 1
			}
		}
	}
	if useTel {
		if err := dumpTelemetry(runner, telDir, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// dumpTelemetry summarizes the telemetry of every shared run and, when
// dir is non-empty, writes each run's time series as CSV there. Runs
// whose simulation was interrupted are included: their series carry the
// samples taken up to the abort.
func dumpTelemetry(runner *experiments.Runner, dir string, stdout io.Writer) error {
	runs := runner.TimeSeries()
	fmt.Fprintf(stdout, "telemetry: %d shared runs recorded\n", len(runs))
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, rt := range runs {
		name := fmt.Sprintf("%03d_%s_%s.csv", i, rt.Policy, strings.Join(rt.Benchmarks, "+"))
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := rt.Collector.Series.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "telemetry: wrote %d series to %s\n", len(runs), dir)
	return nil
}
