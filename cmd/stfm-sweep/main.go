// Command stfm-sweep runs parameter sweeps over the simulation and
// emits CSV for plotting: vary one knob (alpha, banks, row-buffer
// size, channels, cores, marking cap) across a workload and record
// fairness and throughput per scheduler.
//
// Usage:
//
//	stfm-sweep -knob alpha -workload mcf,libquantum,GemsFDTD,astar
//	stfm-sweep -knob banks -policies FR-FCFS,STFM
//	stfm-sweep -knob channels -policies all
//	stfm-sweep -knob cores
//	stfm-sweep -knob protocol -policies FR-FCFS,STFM
//	stfm-sweep -knob alpha -protocol DDR4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stfm/internal/core"
	"stfm/internal/dram"
	"stfm/internal/experiments"
	"stfm/internal/sim"
	"stfm/internal/store"
	"stfm/internal/telemetry"
	"stfm/internal/trace"
)

func main() {
	var (
		knob     = flag.String("knob", "alpha", "what to sweep: alpha, banks, rowbuffer, channels, cores, cap, protocol")
		workload = flag.String("workload", "mcf,libquantum,GemsFDTD,astar", "comma-separated benchmarks")
		protocol = flag.String("protocol", "", "DRAM protocol pack for non-protocol sweeps: DDR2, DDR3, DDR4, GDDR5, HBM")
		policies = flag.String("policies", "", fmt.Sprintf(`comma-separated schedulers from %v, or "all" for every one (default depends on knob)`, sim.ExtendedPolicies()))
		instrs   = flag.Int64("instrs", 200_000, "per-thread instruction budget")
		seed     = flag.Uint64("seed", 1, "trace seed")
		baseline = flag.String("baseline-dir", "", "persistent alone-baseline store directory, shared across runs and tools (empty: memory-only)")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and periodic runtime metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the sweep: CSV rows already printed stay on
	// stdout (each row flushes as it completes), the in-progress run
	// aborts at its next event boundary, and the tool exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx = ctx
	protoPack = dram.Protocol(*protocol)
	var err error
	if baselines, err = store.Open(*baseline); err != nil {
		fmt.Fprintln(os.Stderr, "stfm-sweep:", err)
		os.Exit(1)
	}
	if protoPack != "" && !protoPack.Known() {
		fmt.Fprintf(os.Stderr, "stfm-sweep: unknown protocol %q (known: %v)\n", protoPack, dram.Protocols())
		os.Exit(1)
	}

	if *pprof != "" {
		stop, err := telemetry.ServeProfiling(*pprof, 10*time.Second, log.New(os.Stderr, "stfm-sweep: ", 0).Printf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stfm-sweep:", err)
			os.Exit(1)
		}
		defer stop()
	}

	names := strings.Split(*workload, ",")
	var pols []sim.PolicyKind
	if *policies == "all" {
		pols = sim.ExtendedPolicies()
	} else if *policies != "" {
		for _, p := range strings.Split(*policies, ",") {
			pols = append(pols, sim.PolicyKind(strings.TrimSpace(p)))
		}
	}

	switch *knob {
	case "alpha":
		err = sweepAlpha(names, *instrs, *seed)
	case "banks":
		err = sweepGeometry(names, *instrs, *seed, pols, "banks", []int{4, 8, 16, 32})
	case "rowbuffer":
		err = sweepGeometry(names, *instrs, *seed, pols, "rowbuffer", []int{1, 2, 4, 8})
	case "channels":
		err = sweepChannels(names, *instrs, *seed, pols)
	case "cores":
		err = sweepCores(*instrs, *seed, pols)
	case "cap":
		err = sweepCap(names, *instrs, *seed)
	case "protocol":
		err = sweepProtocol(names, *instrs, *seed, pols)
	default:
		err = fmt.Errorf("unknown knob %q", *knob)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stfm-sweep:", err)
		if errors.Is(err, sim.ErrCanceled) || errors.Is(err, sim.ErrDeadline) {
			fmt.Fprintln(os.Stderr, "stfm-sweep: interrupted; completed CSV rows were already written to stdout")
			stop()
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// runCtx bounds every sweep simulation; main swaps in the
// signal-canceled context before any sweep starts. protoPack is the
// -protocol flag: the DRAM pack every non-protocol sweep runs under.
var (
	runCtx    = context.Background()
	protoPack dram.Protocol
	// baselines is the store on the -baseline-dir flag, shared by every
	// sweep runner, so repeated sweeps (and other tools on the same
	// directory) skip recomputing the Talone denominators.
	baselines *store.Store
)

func runner(instrs int64, seed uint64, geom *dram.Geometry, channels int) *experiments.Runner {
	return experiments.NewRunnerContext(runCtx, experiments.Options{
		InstrTarget: instrs, MinMisses: 150, Seed: seed,
		Protocol: protoPack, Geometry: geom, Channels: channels,
		Baseline: baselines,
	})
}

// sweepProtocol runs the workload under every DRAM protocol pack: the
// cross-generation sensitivity sweep (one fresh runner per protocol,
// since alone-run baselines are protocol-specific).
func sweepProtocol(names []string, instrs int64, seed uint64, pols []sim.PolicyKind) error {
	profs, err := profiles(names)
	if err != nil {
		return err
	}
	pols = defaultPolicies(pols)
	fmt.Println("protocol,policy,unfairness,weighted_speedup,hmean_speedup,sum_ipc")
	for _, p := range dram.Protocols() {
		r := experiments.NewRunnerContext(runCtx, experiments.Options{
			InstrTarget: instrs, MinMisses: 150, Seed: seed, Protocol: p,
			Baseline: baselines,
		})
		for _, pol := range pols {
			wr, err := r.RunWorkload(pol, profs, nil)
			if err != nil {
				return err
			}
			fmt.Printf("%s,%s,%.4f,%.4f,%.4f,%.4f\n", p, pol, wr.Unfairness, wr.WeightedSpeedup, wr.HmeanSpeedup, wr.SumIPC)
		}
	}
	return nil
}

func profiles(names []string) ([]trace.Profile, error) {
	return experiments.Profiles(names...)
}

func sweepAlpha(names []string, instrs int64, seed uint64) error {
	profs, err := profiles(names)
	if err != nil {
		return err
	}
	fmt.Println("alpha,unfairness,weighted_speedup,hmean_speedup,sum_ipc")
	r := runner(instrs, seed, nil, 0)
	for _, alpha := range []float64{1.0, 1.02, 1.05, 1.1, 1.2, 1.5, 2, 5, 10, 20} {
		a := alpha
		wr, err := r.RunWorkload(sim.PolicySTFM, profs, func(c *sim.Config) {
			c.STFM = core.DefaultConfig()
			c.STFM.Alpha = a
		})
		if err != nil {
			return err
		}
		fmt.Printf("%.2f,%.4f,%.4f,%.4f,%.4f\n", alpha, wr.Unfairness, wr.WeightedSpeedup, wr.HmeanSpeedup, wr.SumIPC)
	}
	return nil
}

func defaultPolicies(pols []sim.PolicyKind) []sim.PolicyKind {
	if len(pols) > 0 {
		return pols
	}
	return []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM}
}

func sweepGeometry(names []string, instrs int64, seed uint64, pols []sim.PolicyKind, kind string, vals []int) error {
	profs, err := profiles(names)
	if err != nil {
		return err
	}
	pols = defaultPolicies(pols)
	fmt.Printf("%s,policy,unfairness,weighted_speedup\n", kind)
	for _, v := range vals {
		g := dram.DefaultGeometry(1)
		switch kind {
		case "banks":
			g.BanksPerChannel = v
		case "rowbuffer":
			g.RowBufferBytes = v * 1024 * 8 // per-chip KB x 8 chips
		}
		r := runner(instrs, seed, &g, 0)
		for _, pol := range pols {
			wr, err := r.RunWorkload(pol, profs, nil)
			if err != nil {
				return err
			}
			fmt.Printf("%d,%s,%.4f,%.4f\n", v, pol, wr.Unfairness, wr.WeightedSpeedup)
		}
	}
	return nil
}

func sweepChannels(names []string, instrs int64, seed uint64, pols []sim.PolicyKind) error {
	profs, err := profiles(names)
	if err != nil {
		return err
	}
	pols = defaultPolicies(pols)
	fmt.Println("channels,policy,unfairness,weighted_speedup")
	for _, ch := range []int{1, 2, 4} {
		r := runner(instrs, seed, nil, ch)
		for _, pol := range pols {
			wr, err := r.RunWorkload(pol, profs, nil)
			if err != nil {
				return err
			}
			fmt.Printf("%d,%s,%.4f,%.4f\n", ch, pol, wr.Unfairness, wr.WeightedSpeedup)
		}
	}
	return nil
}

// sweepCores scales the workload from 2 to 16 cores drawing
// intensiveness-ordered benchmarks, the paper's scalability story.
func sweepCores(instrs int64, seed uint64, pols []sim.PolicyKind) error {
	all := trace.SPEC2006()
	pols = defaultPolicies(pols)
	fmt.Println("cores,policy,unfairness,weighted_speedup")
	for _, n := range []int{2, 4, 8, 16} {
		var profs []trace.Profile
		for i := 0; i < n; i++ {
			profs = append(profs, all[(i*len(all)/n)%len(all)])
		}
		r := runner(instrs, seed, nil, 0)
		for _, pol := range pols {
			wr, err := r.RunWorkload(pol, profs, nil)
			if err != nil {
				return err
			}
			fmt.Printf("%d,%s,%.4f,%.4f\n", n, pol, wr.Unfairness, wr.WeightedSpeedup)
		}
	}
	return nil
}

func sweepCap(names []string, instrs int64, seed uint64) error {
	profs, err := profiles(names)
	if err != nil {
		return err
	}
	fmt.Println("cap,unfairness,weighted_speedup")
	r := runner(instrs, seed, nil, 0)
	for _, cap := range []int{1, 2, 4, 8, 16, 64} {
		cp := cap
		wr, err := r.RunWorkload(sim.PolicyFRFCFSCap, profs, func(c *sim.Config) { c.CapValue = cp })
		if err != nil {
			return err
		}
		fmt.Printf("%d,%.4f,%.4f\n", cap, wr.Unfairness, wr.WeightedSpeedup)
	}
	return nil
}
