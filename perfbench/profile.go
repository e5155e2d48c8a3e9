package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// layerPrefixes maps this repository's packages to the layer names of
// the per-layer metrics. Order matters: memctrl/policy before memctrl.
var layerPrefixes = []struct{ prefix, layer string }{
	{"stfm/internal/memctrl/policy.", "policy"},
	{"stfm/internal/memctrl.", "memctrl"},
	{"stfm/internal/core.", "core"},
	{"stfm/internal/dram.", "dram"},
	{"stfm/internal/cpu.", "cpu"},
	{"stfm/internal/cache.", "cache"},
	{"stfm/internal/trace.", "trace"},
	{"stfm/internal/sim.", "sim"},
	{"stfm/internal/experiments.", "experiments"},
	{"stfm/internal/telemetry.", "telemetry"},
	{"stfm/internal/service.", "service"},
	{"main.", "bench"},
}

// shareLayers lists every layer a *.self_share metric is printed for.
// "other" collects repository packages outside the table (metrics,
// workloads); "runtime" collects samples with no repository frame.
var shareLayers = []string{"memctrl", "policy", "core", "dram", "cpu", "cache", "trace", "sim",
	"experiments", "telemetry", "service", "bench", "other", "runtime"}

// layerOfStack attributes one sampled stack, innermost frame first, to
// the layer of its innermost frame from this repository.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		for _, lp := range layerPrefixes {
			if strings.HasPrefix(fn, lp.prefix) {
				return lp.layer
			}
		}
		if strings.HasPrefix(fn, "stfm/") {
			return "other"
		}
	}
	return "runtime"
}

// attributeTraces reads the text that `go tool pprof -traces` prints for
// a CPU profile and returns each layer's share of the sampled time. Each
// stack is a block opened by a dashed separator; its first line holds
// the stack's sampled time and innermost function, and each further line
// one caller.
func attributeTraces(text string) (map[string]float64, error) {
	weights := map[string]float64{}
	var total float64
	var stack []string
	var value float64
	inBlock := false
	flush := func() {
		if len(stack) > 0 {
			weights[layerOfStack(stack)] += value
			total += value
		}
		stack, value = nil, 0
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		f := strings.Fields(line)
		if !inBlock || len(f) == 0 {
			continue
		}
		if len(stack) > 0 {
			stack = append(stack, f[0])
			continue
		}
		if strings.HasSuffix(f[0], ":") || len(f) < 2 {
			continue // a label line, such as "bytes:  2kB"
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof traces: bad sample value %q", f[0])
		}
		value = float64(d)
		stack = append(stack, f[1])
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := map[string]float64{}
	for _, l := range shareLayers {
		shares[l] = weights[l] / total
	}
	return shares, nil
}

// cpuProfile profiles the calling process into path until stop is called.
type cpuProfile struct{ f *os.File }

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// profileShares reads a CPU profile back with the toolchain's pprof and
// sets one *.self_share metric per layer.
func profileShares(path string, layers metricSet) error {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = os.Stderr
	text, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -traces: %w", err)
	}
	if err := os.WriteFile(path+".traces.txt", text, 0o644); err != nil {
		return err
	}
	shares, err := attributeTraces(string(text))
	if err != nil {
		return err
	}
	for l, v := range shares {
		layers[l+".self_share"] = metric{v, "fraction"}
	}
	return nil
}
