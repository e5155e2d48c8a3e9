package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// envelope describes the host and the run, printed with every result so
// that a noisy host can be told apart from a slow commit.
type envelope struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"goVersion"`
	Commit     string         `json:"commit"`
	Load1Start float64        `json:"load1Start"`
	Load1End   float64        `json:"load1End"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Digest     string         `json:"digest"`
	Info       map[string]any `json:"info"`
}

func startEnvelope(workload string, seed uint64, seconds int, traced bool) *envelope {
	return &envelope{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
		Load1Start: load1(),
	}
}

func (e *envelope) finish(out *outcome) {
	e.Load1End = load1()
	e.Attempted = out.attempted
	e.Failed = out.failed
	e.Digest = out.digest
	e.Info = out.info
}

// load1 returns the 1-minute load average, or -1 where it is unknown.
func load1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// commitID names the code under test: a hash of the Go sources and module
// files below the working directory, preceded in a git checkout by the
// HEAD commit, marked "+dirty" when the tree differs from it.
func commitID() string {
	tree := treeHash()
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return tree
	}
	head := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(st) > 0 {
		head += "+dirty"
	}
	return head + " " + tree
}

// treeHash hashes the Go sources and module files below the working
// directory, skipping hidden directories.
func treeHash() string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB returns the process's peak resident set size in MB, read from
// /proc (VmHWM); where that is unavailable, the Go runtime's reserved
// memory stands in.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// ladder lists the percentiles a latency can be reported at.
var ladder = []float64{0.5, 0.9, 0.99, 0.999}

// supportedPercentile returns the highest percentile of the ladder that
// has at least 10 of n samples beyond it under the nearest-rank rule, or
// 0 when even the median has fewer.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, q := range ladder {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = q
		}
	}
	return best
}

// latencyMetrics sets latency_p50_s and latency_p90_s from samples in
// seconds and records the sample count and the highest supported
// percentile.
func latencyMetrics(out *outcome, samples []float64) {
	out.metrics["latency_p50_s"] = metric{quantile(samples, 0.5), "s"}
	out.metrics["latency_p90_s"] = metric{quantile(samples, 0.9), "s"}
	out.info["latency_samples"] = len(samples)
	out.info["latency_supported_percentile"] = supportedPercentile(len(samples))
}

// digestOf hashes the JSON encoding of v.
func digestOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// finite reports whether every value is a finite number.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// forEach runs fn(i) for every i in [0, n) on `workers` goroutines and
// returns when all calls have.
func forEach(n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// allocSnapshot reads the allocator counters.
func allocSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// runtimeLayer sets the runtime.* per-layer metrics from allocator
// counters taken around a traced pass that committed instrs instructions.
func runtimeLayer(layers metricSet, before, after runtime.MemStats, instrs int64) {
	k := math.Max(float64(instrs)/1000, 1)
	layers["runtime.allocs_per_kinstr"] = metric{float64(after.Mallocs-before.Mallocs) / k, "allocs/kinstr"}
	layers["runtime.bytes_per_kinstr"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / k, "B/kinstr"}
	layers["runtime.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
}

// normalize scales the time metrics by the host's slowdown against the
// reference kernel, setup_s by the one measured between set-ups, so that
// they read as on the host at nominal speed, and keeps the raw figures
// and the slowdowns in the envelope.
func normalize(out *outcome, slowdown, setupSlowdown float64) {
	raw := metricSet{}
	for name, m := range out.metrics {
		raw[name] = m
		switch {
		case name == "setup_s":
			m.Value /= setupSlowdown
		case m.Unit == "s":
			m.Value /= slowdown
		case m.Unit == "Minstr/s", m.Unit == "jobs/s":
			m.Value *= slowdown
		}
		out.metrics[name] = m
	}
	out.info["raw_metrics"] = raw
	out.info["host_slowdown"] = slowdown
	out.info["host_slowdown_setup"] = setupSlowdown
}
