// Command stfm-sim runs one multiprogrammed workload on the simulated
// CMP and prints per-thread performance, slowdowns, and the fairness
// and throughput metrics under a chosen DRAM scheduling policy.
//
// Usage:
//
//	stfm-sim -workload mcf,libquantum,GemsFDTD,astar -policy STFM
//	stfm-sim -workload mcf,libquantum -policy NFQ -instrs 500000
//	stfm-sim -workload desktop -policy FR-FCFS
//	stfm-sim -workload mcf,libquantum -protocol HBM -refresh
//	stfm-sim -telemetry -trace-out trace.json -series-out series.csv
//	stfm-sim -list
//
// With -telemetry the run records an interval time series (per-thread
// slowdown estimates, stall cycles, queue occupancy, bus utilization,
// row-buffer outcomes) and a ring buffer of DRAM command and request
// lifecycle events; -trace-out writes the events in Chrome trace_event
// format (open in chrome://tracing or Perfetto), -trace-jsonl writes
// them as JSON Lines, and -series-out writes the time series as CSV.
// Giving any output flag implies -telemetry.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"stfm/internal/core"
	"stfm/internal/dram"
	"stfm/internal/experiments"
	"stfm/internal/sim"
	"stfm/internal/telemetry"
	"stfm/internal/trace"
	"stfm/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "mcf,libquantum", "comma-separated benchmark names, or 'desktop'")
		policy   = flag.String("policy", "STFM", fmt.Sprint("scheduler, one of ", sim.ExtendedPolicies()))
		instrs   = flag.Int64("instrs", 300_000, "per-thread instruction budget")
		seed     = flag.Uint64("seed", 1, "trace generation seed")
		alpha    = flag.Float64("alpha", 1.10, "STFM maximum tolerable unfairness")
		weights  = flag.String("weights", "", "comma-separated thread weights (STFM weights / NFQ shares)")
		caches   = flag.Bool("caches", false, "simulate the full L1/L2 hierarchy instead of miss streams")
		refresh  = flag.Bool("refresh", false, "enable DRAM auto-refresh with the protocol's tREFI/tRFC constants")
		protocol = flag.String("protocol", "", "DRAM protocol pack: DDR2, DDR3, DDR4, GDDR5, HBM (default: the paper's DDR2-800)")
		list     = flag.Bool("list", false, "list available benchmarks and exit")

		useTel      = flag.Bool("telemetry", false, "collect interval time series and DRAM event trace")
		sampleEvery = flag.Int64("sample-every", 1000, "telemetry sampling interval in DRAM cycles")
		traceOut    = flag.String("trace-out", "", "write the event trace in Chrome trace_event format (implies -telemetry)")
		traceJSONL  = flag.String("trace-jsonl", "", "write the event trace as JSON Lines (implies -telemetry)")
		seriesOut   = flag.String("series-out", "", "write the interval time series as CSV (implies -telemetry)")
	)
	flag.Parse()
	if *traceOut != "" || *traceJSONL != "" || *seriesOut != "" {
		*useTel = true
	}

	if *list {
		fmt.Println("SPEC CPU2006 profiles (Table 3):")
		for _, p := range trace.SPEC2006() {
			fmt.Printf("  %-12s MPKI %7.2f  RBhit %5.1f%%  category %d\n", p.Name, p.MPKI, p.RowHit*100, p.Category)
		}
		fmt.Println("Desktop profiles (Table 4):")
		for _, p := range trace.Desktop() {
			fmt.Printf("  %-18s MPKI %7.2f  RBhit %5.1f%%\n", p.Name, p.MPKI, p.RowHit*100)
		}
		return
	}

	var profs []trace.Profile
	var err error
	if *workload == "desktop" {
		profs = workloads.Desktop().Profiles
	} else {
		profs, err = experiments.Profiles(strings.Split(*workload, ",")...)
		if err != nil {
			fatal(err)
		}
	}

	w, err := parseWeights(*weights, len(profs))
	if err != nil {
		fatal(err)
	}

	proto := dram.Protocol(*protocol)
	var refreshTiming *dram.Timing
	if *refresh {
		// Refresh constants come from the protocol pack; with no
		// protocol selected this is the DDR2 baseline with its
		// historical tREFI/tRFC.
		base := dram.DefaultTiming()
		if proto != "" {
			base, err = dram.PresetTiming(proto)
			if err != nil {
				fatal(err)
			}
		}
		tm := base.WithRefresh()
		refreshTiming = &tm
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.DefaultOptions()
	opts.InstrTarget = *instrs
	opts.Seed = *seed
	// Protocol goes through Options, not the mutate callback, so the
	// alone-run baselines behind the slowdown metrics use the same
	// memory system as the shared run.
	opts.Protocol = proto
	if *useTel {
		opts.Telemetry = telemetry.Options{SampleEvery: *sampleEvery, TraceCap: telemetry.DefaultTraceCap}
	}
	runner := experiments.NewRunnerContext(ctx, opts)
	wr, err := runner.RunWorkload(sim.PolicyKind(*policy), profs, func(c *sim.Config) {
		c.UseCaches = *caches
		c.STFM = core.DefaultConfig()
		c.STFM.Alpha = *alpha
		if w != nil {
			c.STFM.Weights = w
			c.NFQWeights = w
		}
		if refreshTiming != nil {
			c.Timing = refreshTiming
		}
	})
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) || errors.Is(err, sim.ErrDeadline) {
			// Interrupted: flush whatever telemetry the aborted run
			// collected, then exit with the fatal-SIGINT status.
			fmt.Fprintln(os.Stderr, "stfm-sim:", err)
			if *useTel {
				if werr := writeTelemetry(runner, *traceOut, *traceJSONL, *seriesOut); werr != nil {
					fmt.Fprintln(os.Stderr, "stfm-sim:", werr)
				}
			}
			stop()
			os.Exit(130)
		}
		fatal(err)
	}

	fmt.Printf("policy %s, %d threads, %d instructions/thread\n\n", *policy, len(profs), *instrs)
	fmt.Printf("%-18s %8s %8s %8s %9s %9s %9s %8s %8s\n", "thread", "IPC", "MCPI", "slowdown", "DRAMreads", "rowhit%", "avglat", "p95lat", "p99lat")
	for i, th := range wr.Shared {
		fmt.Printf("%-18s %8.3f %8.3f %8.2f %9d %8.1f%% %9.0f %8d %8d\n",
			th.Benchmark, th.IPC, th.MCPI, wr.Slowdowns[i], th.DRAMReads, th.RowHitRate*100, th.AvgReadLatency,
			th.P95ReadLatency, th.P99ReadLatency)
	}
	fmt.Printf("\nunfairness       %8.3f\n", wr.Unfairness)
	fmt.Printf("weighted speedup %8.3f\n", wr.WeightedSpeedup)
	fmt.Printf("hmean speedup    %8.3f\n", wr.HmeanSpeedup)
	fmt.Printf("sum of IPCs      %8.3f\n", wr.SumIPC)

	if *useTel {
		if err := writeTelemetry(runner, *traceOut, *traceJSONL, *seriesOut); err != nil {
			fatal(err)
		}
	}
}

// writeTelemetry exports the shared run's collected telemetry to the
// requested output files and prints a one-line summary.
func writeTelemetry(runner *experiments.Runner, traceOut, traceJSONL, seriesOut string) error {
	runs := runner.TimeSeries()
	if len(runs) == 0 {
		return fmt.Errorf("telemetry enabled but no run recorded")
	}
	col := runs[0].Collector
	fmt.Printf("\ntelemetry: %d samples, %d events recorded (%d dropped by ring)\n",
		col.Series.Len(), len(col.Tracer.Events()), col.Tracer.Dropped())
	write := func(path string, emit func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(traceOut, func(f *os.File) error { return col.Tracer.WriteChromeTrace(f) }); err != nil {
		return err
	}
	if err := write(traceJSONL, func(f *os.File) error { return col.Tracer.WriteJSONL(f) }); err != nil {
		return err
	}
	return write(seriesOut, func(f *os.File) error { return col.Series.WriteCSV(f) })
}

func parseWeights(s string, n int) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("got %d weights for %d threads", len(parts), n)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stfm-sim:", err)
	os.Exit(1)
}
