// Command perfbench is the repository's benchmark: one command that runs
// a workload for a seed, checks the simulator's outputs, and prints every
// metric with its unit. The workloads, the metrics and the layers each
// workload loads are described in README.md beside this file.
//
//	go run . --workload paper4 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 267, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, and the spans, the CPU
// profile and the per-layer numbers are also written under
// .bench_build/perfbench/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workers is the number of simulation goroutines (and, in serve, of
// server workers and client connections) the benchmark runs.
const workers = 2

// runDeadline bounds one run, below the 180 s a run may take.
const runDeadline = 170 * time.Second

// scale is the fixed amount of work a run does. It is derived from the
// seconds budget, never from measured durations, so the same arguments
// always do the same work.
type scale struct {
	// Instr is the per-thread instruction target of every simulation.
	Instr int64
	// MinMisses is sim.Config.MinMisses for paper4 (the paper's 150).
	MinMisses int64
	// Setups is how often set-up is repeated; setup_s is the median.
	Setups int
	// Passes is how often the batch workloads (paper4, cache8) run each
	// of their cells in the timed stream.
	Passes int
	// Requests is the closed-loop request count of serve.
	Requests int
}

// scaleFor sizes a workload for a budget of about seconds of timed work
// on a 2-CPU host.
func scaleFor(workload string, seconds int) scale {
	switch workload {
	case "paper4":
		// One pass (50 cells) takes about 5 s; at least 2 passes give the
		// 100 cell latencies p90 needs.
		return scale{Instr: 100_000, MinMisses: 150, Setups: 15, Passes: max(2, seconds/5)}
	case "cache8":
		// One pass (16 cells) takes about 2.5 s; at least 7 passes give
		// 112 cell latencies.
		return scale{Instr: 50_000, Setups: 11, Passes: max(7, seconds*2/5)}
	default:
		// About 6 requests a second, nearly 90% of which simulate; at
		// least 120 requests give 100 simulating ones.
		return scale{Instr: 80_000, Setups: 7, Requests: max(120, seconds*6)}
	}
}

// bench is one run's parameters and shared state.
type bench struct {
	seed   uint64
	scale  scale
	traced bool
	// outDir receives a traced run's spans, profile and per-layer
	// numbers; workDir holds serve's server directories.
	outDir  string
	workDir string
	spans   *spanLog
	// ref times the host-speed reference chunks of the timed phase,
	// setupRef those run after each set-up.
	ref, setupRef *hostRef
}

// setups and passes are the repetitions a run makes: a traced run sets
// up once and runs each cell once untraced and once traced.
func (b *bench) setups() int {
	if b.traced {
		return 1
	}
	return b.scale.Setups
}

func (b *bench) passes() int {
	if b.traced {
		return 1
	}
	return b.scale.Passes
}

// workloadFuncs maps a workload name to the function that runs it.
var workloadFuncs = map[string]func(ctx context.Context, b *bench) (*outcome, error){
	"paper4": runPaper4,
	"cache8": runCache8,
	"serve":  runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper4, cache8 or serve")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "timed-work budget in seconds; sizes the fixed work")
	traceFlag := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload paper4|cache8|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(workers)
	b := &bench{
		seed:     *seed,
		scale:    scaleFor(*workload, *seconds),
		traced:   *traceFlag == 1,
		outDir:   filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d", *workload, *seed)),
		workDir:  filepath.Join(".bench_build", "perfbench", "work"),
		ref:      &hostRef{},
		setupRef: &hostRef{},
	}
	env := startEnvelope(*workload, *seed, *seconds, b.traced)
	out, err := execute(fn, b)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env.finish(out)
	if err := emit(stdout, env, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if out.failed > 0 {
		for _, f := range out.failures {
			fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
		}
		return 1
	}
	return 0
}

// execute runs one workload under the run deadline and, when traced,
// writes its spans and per-layer numbers to b.outDir.
func execute(fn func(context.Context, *bench) (*outcome, error), b *bench) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if b.traced {
		b.spans = newSpanLog()
		if err := os.MkdirAll(b.outDir, 0o755); err != nil {
			return nil, err
		}
	}
	out, err := fn(ctx, b)
	if err != nil {
		return nil, err
	}
	out.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	normalize(out, b.ref.slowdown(), b.setupRef.slowdown())
	if b.traced {
		out.metrics = out.layers
		if err := writeJSONFile(filepath.Join(b.outDir, "spans.json"), b.spans.report()); err != nil {
			return nil, err
		}
		if err := writeJSONFile(filepath.Join(b.outDir, "layers.json"), out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// emit prints the host envelope, the results digest and, last, the
// result object.
func emit(w io.Writer, env *envelope, out *outcome) error {
	line, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "envelope %s\n", line)
	fmt.Fprintf(w, "digest %s\n", out.digest)
	res, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	// failures holds the first few failure messages.
	failures []string
	// digest is a SHA-256 over every Result of the run, in a fixed order.
	digest string
	// metrics are the end-to-end metrics (untraced runs); layers the
	// per-layer ones (traced runs).
	metrics metricSet
	layers  metricSet
	info    map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: metricSet{}, layers: metricSet{}, info: map[string]any{}}
}

// op records one attempted operation, failed when err is non-nil.
func (o *outcome) op(err error) {
	o.attempted++
	o.fail(err)
}

// fail records a failure without counting a new operation.
func (o *outcome) fail(err error) {
	if err == nil {
		return
	}
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, err.Error())
	}
}

// opErrs records one operation per element of errs.
func (o *outcome) opErrs(errs []error) {
	for _, err := range errs {
		o.op(err)
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
