package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"stfm/internal/dram"
	"stfm/internal/experiments"
	"stfm/internal/service"
	"stfm/internal/sim"
	"stfm/internal/trace"
	"stfm/internal/workloads"
)

// serve is an in-process service.Server behind a loopback HTTP listener,
// with its result cache, journal and baseline store in a fresh directory
// and two workers, loaded by a closed loop of two service.Client callers.
// Each caller sends a fixed sequence derived from the seed over the 40
// cells of the protocols matrix: mostly fresh seeds (simulated,
// journaled, checkpointed, cached), a fixed share of repeats of configs
// the caller already completed (result-cache reads), and a few forks of
// completed jobs (the snapshot/restore path).

// servePoll is the Wait poll interval, at most 1% of a fresh job's run
// time (about 0.15 s).
const servePoll = time.Millisecond

type reqKind int

const (
	kindFresh reqKind = iota
	kindRepeat
	kindFork
)

func (k reqKind) String() string {
	return [...]string{"fresh", "repeat", "fork"}[k]
}

// serveReq is one request of a caller's sequence.
type serveReq struct {
	kind reqKind
	cell int    // protocols-matrix cell (fresh)
	seed uint64 // config seed (fresh)
	ref  int    // earlier request of the same caller (repeat, fork)
}

// serveCell is one cell of the protocols matrix.
type serveCell struct {
	mix   workloads.Mix
	pol   sim.PolicyKind
	proto dram.Protocol
}

func serveCells() ([]serveCell, error) {
	spec, err := experiments.MatrixByID("protocols")
	if err != nil {
		return nil, err
	}
	var cells []serveCell
	for _, m := range spec.Mixes {
		for _, pol := range spec.Policies {
			for _, proto := range spec.Protocols {
				cells = append(cells, serveCell{m, pol, proto})
			}
		}
	}
	return cells, nil
}

// serveSequences derives each caller's request sequence from the seed:
// every 8th request repeats an earlier fresh one, every 10th (that is
// not a repeat) forks a fresh one not yet forked, and the rest are fresh.
// Fresh requests draw the cells in rounds, each a seed-derived shuffle of
// all cells, so that every seed simulates nearly the same mix of cells:
// their costs differ by protocol, and an unbalanced draw would move the
// time metrics with the seed.
func serveSequences(seed uint64, total, ncells int) [][]serveReq {
	seqs := make([][]serveReq, workers)
	for c := range seqs {
		rng := trace.NewRand(seed*0x9E3779B97F4A7C15 + uint64(c) + 1)
		n := total / workers
		if c < total%workers {
			n++
		}
		var fresh, unforked, round []int
		for j := 0; j < n; j++ {
			switch {
			case j%8 == 7 && len(fresh) > 0:
				seqs[c] = append(seqs[c], serveReq{kind: kindRepeat, ref: fresh[rng.Intn(len(fresh))]})
			case j%10 == 9 && len(unforked) > 0:
				k := rng.Intn(len(unforked))
				seqs[c] = append(seqs[c], serveReq{kind: kindFork, ref: unforked[k]})
				unforked = append(unforked[:k], unforked[k+1:]...)
			default:
				if len(round) == 0 {
					round = shuffled(rng, ncells)
				}
				fresh = append(fresh, j)
				unforked = append(unforked, j)
				seqs[c] = append(seqs[c], serveReq{kind: kindFresh, cell: round[0],
					seed: seed<<24 | uint64(c)<<20 | uint64(j)})
				round = round[1:]
			}
		}
	}
	return seqs
}

// shuffled returns 0..n-1 in an order drawn from rng (Fisher-Yates).
func shuffled(rng *trace.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		k := rng.Intn(i + 1)
		p[i], p[k] = p[k], p[i]
	}
	return p
}

func serveConfig(b *bench, c serveCell, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(c.pol, 0)
	cfg.InstrTarget = b.scale.Instr
	cfg.Seed = seed
	cfg.Protocol = c.proto
	return cfg
}

// aloneKey names one alone-fleet job: a benchmark under a protocol.
type aloneKey struct {
	proto dram.Protocol
	bench string
}

// aloneConfig is the alone-shaped job for a benchmark of a 4-core mix.
func aloneConfig(b *bench, proto dram.Protocol) sim.Config {
	cfg := sim.DefaultConfig(sim.PolicyFRFCFS, 0)
	cfg.Channels = sim.ProtocolChannels(proto, 4)
	cfg.InstrTarget = b.scale.Instr
	cfg.Seed = b.seed
	cfg.Protocol = proto
	return cfg
}

func aloneKeys(cells []serveCell) []aloneKey {
	seen := map[aloneKey]bool{}
	var keys []aloneKey
	for _, c := range cells {
		for _, p := range c.mix.Profiles {
			k := aloneKey{c.proto, p.Name}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// liveServer is a service.Server serving HTTP on a loopback listener.
type liveServer struct {
	dir  string
	srv  *service.Server
	http *http.Server
	base string
	done chan struct{}
}

func startServer(dir string) (*liveServer, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{
		Workers:     workers,
		CacheDir:    filepath.Join(dir, "cache"),
		JournalDir:  filepath.Join(dir, "journal"),
		BaselineDir: filepath.Join(dir, "baseline"),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()))
	}
	ls := &liveServer{dir: dir, srv: srv, http: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln)
	}()
	return ls, nil
}

// stop closes the listener and its connections, drains the server and
// removes its directory; it returns once the serving goroutine and the
// server's workers have exited.
func (ls *liveServer) stop() error {
	err := ls.http.Close()
	<-ls.done
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(err, ls.srv.Drain(ctx), os.RemoveAll(ls.dir))
}

// callers returns the closed loop's clients, which share one transport
// of at most `workers` connections.
func callers(base string) ([]*service.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	hc := &http.Client{Transport: tr}
	cl := make([]*service.Client, workers)
	for i := range cl {
		cl[i] = service.NewClient(base, hc)
	}
	return cl, tr
}

// served is one completed request.
type served struct {
	kind      reqKind
	cfg       sim.Config
	workload  []string
	id        string
	result    *sim.Result
	latency   float64 // submit to result fetched, s
	queue     float64 // server-side queue wait, s
	run       float64 // server-side run time, s
	simulates bool
}

// roundTrip runs Submit (or Fork) -> Wait -> Result with a span around
// each call and the server-side queue and run intervals under wait. It
// also reports whether the server answered from its result cache.
func roundTrip(ctx context.Context, b *bench, cl *service.Client, parent int, attr string,
	submit func() (*service.SubmitResponse, error)) (served, bool, error) {
	var rec served
	t0 := time.Now()
	sp := b.spans.begin(parent, "request", attr)
	defer b.spans.end(sp)
	s := b.spans.begin(sp, "submit", "")
	resp, err := submit()
	b.spans.end(s)
	if err != nil {
		return rec, false, err
	}
	if len(resp.Jobs) != 1 {
		return rec, false, fmt.Errorf("submit returned %d jobs", len(resp.Jobs))
	}
	rec.id = resp.Jobs[0].ID
	s = b.spans.begin(sp, "wait", "")
	info, err := cl.Wait(ctx, rec.id, servePoll)
	b.spans.end(s)
	if err != nil {
		return rec, false, err
	}
	b.spans.add(s, "server.queue", rec.id, info.SubmittedAt, info.StartedAt)
	b.spans.add(s, "server.run", rec.id, info.StartedAt, info.FinishedAt)
	s = b.spans.begin(sp, "result", "")
	rr, err := cl.Result(ctx, rec.id)
	b.spans.end(s)
	rec.latency = since(t0)
	if err != nil {
		return rec, false, err
	}
	if rr.Status != service.StatusDone || rr.Result == nil {
		return rec, false, fmt.Errorf("job %s ended %s: %s", rec.id, rr.Status, rr.Error)
	}
	rec.result = rr.Result
	if !info.StartedAt.IsZero() {
		rec.queue = info.StartedAt.Sub(info.SubmittedAt).Seconds()
		rec.run = info.FinishedAt.Sub(info.StartedAt).Seconds()
	}
	return rec, rr.Cached, checkThreads(rr.Result)
}

// serveSetup starts a server and computes the alone fleet through it as
// alone-shaped jobs, sent by the two callers.
func serveSetup(ctx context.Context, b *bench, out *outcome, dir string, keys []aloneKey) (*liveServer, map[aloneKey]sim.ThreadResult, float64, error) {
	sp := b.spans.begin(0, "setup", "")
	defer b.spans.end(sp)
	t0 := time.Now()
	ls, err := startServer(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	cl, tr := callers(ls.base)
	defer tr.CloseIdleConnections()
	results := make([]*sim.Result, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for c := range cl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(keys); i += len(cl) {
				req := service.JobRequest{Config: aloneConfig(b, keys[i].proto), Workload: []string{keys[i].bench}}
				rec, _, err := roundTrip(ctx, b, cl[c], sp, "alone "+string(keys[i].proto)+"/"+keys[i].bench,
					func() (*service.SubmitResponse, error) { return cl[c].Submit(ctx, req) })
				results[i], errs[i] = rec.result, err
			}
		}(c)
	}
	wg.Wait()
	d := since(t0)
	out.opErrs(errs)
	alone := map[aloneKey]sim.ThreadResult{}
	for i, k := range keys {
		if results[i] != nil {
			alone[k] = results[i].Threads[0]
		}
	}
	return ls, alone, d, nil
}

// serveLoad runs the closed loop: each caller sends its sequence, one
// request at a time. It returns every caller's records and the wall time.
func serveLoad(ctx context.Context, b *bench, out *outcome, ls *liveServer, seqs [][]serveReq, cells []serveCell, alone map[aloneKey]sim.ThreadResult) ([][]served, float64) {
	cl, tr := callers(ls.base)
	defer tr.CloseIdleConnections()
	recs := make([][]served, len(seqs))
	errs := make([][]error, len(seqs))
	load := b.spans.begin(0, "load", "")
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs[c], errs[c] = callerLoop(ctx, b, cl[c], load, seqs[c], cells, alone)
		}(c)
	}
	wg.Wait()
	wall := since(t0)
	b.spans.end(load)
	for _, e := range errs {
		out.opErrs(e)
	}
	return recs, wall
}

// callerLoop sends one caller's sequence and checks each reply.
func callerLoop(ctx context.Context, b *bench, cl *service.Client, parent int, seq []serveReq, cells []serveCell, alone map[aloneKey]sim.ThreadResult) ([]served, []error) {
	recs := make([]served, len(seq))
	errs := make([]error, len(seq))
	for j, rq := range seq {
		b.ref.chunk()
		rec := served{kind: rq.kind}
		var submit func() (*service.SubmitResponse, error)
		switch rq.kind {
		case kindFresh:
			c := cells[rq.cell]
			rec.cfg = serveConfig(b, c, rq.seed)
			rec.workload = trace.Names(c.mix.Profiles)
			rec.simulates = true
		case kindRepeat:
			rec.cfg, rec.workload = recs[rq.ref].cfg, recs[rq.ref].workload
		case kindFork:
			p := recs[rq.ref]
			if p.result == nil {
				recs[j], errs[j] = rec, fmt.Errorf("request %d: fork of failed request %d", j, rq.ref)
				continue
			}
			target := sim.PolicySTFM
			if p.cfg.Policy == sim.PolicySTFM {
				target = sim.PolicyFRFCFS
			}
			at := p.result.TotalCycles / 2
			rec.cfg, rec.workload = p.cfg, p.workload
			rec.cfg.Policy, rec.cfg.ForkAtCycle, rec.cfg.WarmupPolicy = target, at, p.cfg.Policy
			rec.simulates = true
			submit = func() (*service.SubmitResponse, error) {
				return cl.Fork(ctx, p.id, service.ForkRequest{Policies: []sim.PolicyKind{target}, AtCycle: at})
			}
		}
		if submit == nil {
			req := service.JobRequest{Config: rec.cfg, Workload: rec.workload}
			submit = func() (*service.SubmitResponse, error) { return cl.Submit(ctx, req) }
		}
		got, cached, err := roundTrip(ctx, b, cl, parent, rq.kind.String(), submit)
		got.kind, got.cfg, got.workload, got.simulates = rec.kind, rec.cfg, rec.workload, rec.simulates
		if err == nil {
			err = checkServed(got, cached, recs, rq, alone)
		}
		if err != nil {
			err = fmt.Errorf("request %d (%s %s): %w", j, rq.kind, strings.Join(rec.workload, ","), err)
		}
		recs[j], errs[j] = got, err
	}
	return recs, errs
}

// checkServed applies the correctness gate to one reply: repeats must be
// cache hits equal to the result they repeat, simulating requests must
// not be, and every slowdown against the alone fleet must be finite.
func checkServed(rec served, cached bool, recs []served, rq serveReq, alone map[aloneKey]sim.ThreadResult) error {
	switch {
	case rq.kind == kindRepeat && !cached:
		return errors.New("repeat was not served from the result cache")
	case rq.kind == kindRepeat && !reflect.DeepEqual(rec.result, recs[rq.ref].result):
		return errors.New("cache hit differs from the fresh result it repeats")
	case rq.kind != kindRepeat && cached:
		return errors.New("fresh request was served from the result cache")
	}
	_, err := serveModel(rec, alone)
	return err
}

// serveModel computes a reply's slowdowns against the alone fleet, which
// ran each benchmark in the same memory system with the run's base seed.
func serveModel(rec served, alone map[aloneKey]sim.ThreadResult) (modelCell, error) {
	return model(rec.cfg.Policy, rec.result.Threads, func(_ int, th sim.ThreadResult) (sim.ThreadResult, error) {
		a, ok := alone[aloneKey{rec.cfg.Protocol, th.Benchmark}]
		if !ok {
			return a, fmt.Errorf("no alone run for %s/%s", rec.cfg.Protocol, th.Benchmark)
		}
		return a, nil
	})
}

// verify reruns served configs in-process, untimed, and requires each to
// DeepEqual what the server returned; counters, when non-nil, collect
// the accessor counts of every rerun.
func verify(ctx context.Context, b *bench, out *outcome, recs []served, counters *simCounters) {
	sp := b.spans.begin(0, "verify", "")
	defer b.spans.end(sp)
	errs := make([]error, len(recs))
	forEach(len(recs), func(i int) {
		r := recs[i]
		profs, err := experiments.Profiles(r.workload...)
		var res *sim.Result
		if err == nil {
			res, err = runCell(ctx, b, sp, counters, r.cfg, profs)
		}
		if err == nil && !reflect.DeepEqual(res, r.result) {
			err = fmt.Errorf("served result of job %s differs from an in-process run", r.id)
		}
		errs[i] = err
	})
	for _, err := range errs {
		out.fail(err)
	}
}

// flatten lists every caller's records, caller by caller.
func flatten(recs [][]served) []served {
	var all []served
	for _, r := range recs {
		all = append(all, r...)
	}
	return all
}

// simulating returns the records of requests the server simulated.
func simulating(all []served) []served {
	var out []served
	for _, r := range all {
		if r.simulates && r.result != nil {
			out = append(out, r)
		}
	}
	return out
}

func serveDigest(all []served) string {
	results := make([]*sim.Result, len(all))
	for i, r := range all {
		results[i] = r.result
	}
	return digestOf(results)
}

func runServe(ctx context.Context, b *bench) (*outcome, error) {
	out := newOutcome()
	cells, err := serveCells()
	if err != nil {
		return nil, err
	}
	keys := aloneKeys(cells)
	seqs := serveSequences(b.seed, b.scale.Requests, len(cells))
	dir := func(k int) string { return filepath.Join(b.workDir, fmt.Sprintf("serve%d", k)) }
	setups := b.setups()
	var ls *liveServer
	var alone map[aloneKey]sim.ThreadResult
	var setupS []float64
	for k := 0; k < setups; k++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		var d float64
		if ls, alone, d, err = serveSetup(ctx, b, out, dir(k), keys); err != nil {
			return nil, err
		}
		setupS = append(setupS, d)
		b.setupRef.block()
	}
	recs, wall := serveLoad(ctx, b, out, ls, seqs, cells, alone)
	if err := ls.stop(); err != nil {
		return nil, err
	}
	all := flatten(recs)
	sims := simulating(all)
	out.digest = serveDigest(all)
	if b.traced {
		return serveTraced(ctx, b, out, seqs, cells, keys, wall, setupS[0], dir(setups))
	}

	// Untimed: a fixed sample of the served configs, every sixth
	// simulating request, must equal an in-process run.
	var sample []served
	for i := 0; i < len(sims); i += 6 {
		sample = append(sample, sims[i])
	}
	verify(ctx, b, out, sample, nil)

	var instrs int64
	var lat []float64
	for _, r := range sims {
		instrs += instructions(r.result)
		lat = append(lat, r.latency)
	}
	out.metrics["setup_s"] = metric{median(setupS), "s"}
	out.metrics["jobs_per_s"] = metric{float64(len(all)) / wall, "jobs/s"}
	out.metrics["sim_minstr_per_s"] = metric{float64(instrs) / wall / 1e6, "Minstr/s"}
	latencyMetrics(out, lat)
	out.info["requests"] = len(all)
	out.info["simulating_requests"] = len(sims)
	out.info["verified_requests"] = len(sample)
	out.info["setup_samples_s"] = setupS
	return out, nil
}

// serveTraced repeats the load on a second, equally fresh server under a
// CPU profile with the spans on, then reruns every simulating request
// in-process to check it and to read the accessors.
func serveTraced(ctx context.Context, b *bench, out *outcome, seqs [][]serveReq, cells []serveCell, keys []aloneKey, untracedWall, aloneS float64, dir string) (*outcome, error) {
	spans := b.spans
	b.spans = nil // the second server's set-up is not part of the trace
	ls, alone, _, err := serveSetup(ctx, b, out, dir, keys)
	b.spans = spans
	if err != nil {
		return nil, err
	}
	prof, err := startCPUProfile(filepath.Join(b.outDir, "cpu.pprof"))
	if err != nil {
		return nil, errors.Join(err, ls.stop())
	}
	before := allocSnapshot()
	recs, tracedWall := serveLoad(ctx, b, out, ls, seqs, cells, alone)
	after := allocSnapshot()
	if err := prof.stop(); err != nil {
		return nil, errors.Join(err, ls.stop())
	}
	stats := ls.srv.Stats()
	journal, err := readJournal(filepath.Join(ls.dir, "journal", "wal.log"))
	if err != nil {
		return nil, errors.Join(err, ls.stop())
	}
	if err := ls.stop(); err != nil {
		return nil, err
	}
	all := flatten(recs)
	if serveDigest(all) != out.digest {
		out.fail(errors.New("traced load results differ from the untraced load"))
	}
	sims := simulating(all)
	var counters simCounters
	verify(ctx, b, out, sims, &counters)

	layers := out.layers
	if err := profileShares(filepath.Join(b.outDir, "cpu.pprof"), layers); err != nil {
		return nil, err
	}
	counters.set(layers)
	var instrs int64
	var queue, run, overhead, hits []float64
	var models []modelCell
	for _, r := range sims {
		instrs += instructions(r.result)
		queue = append(queue, r.queue)
		run = append(run, r.run)
		overhead = append(overhead, r.latency-r.run)
		if m, err := serveModel(r, alone); err == nil && r.kind == kindFresh {
			models = append(models, m)
		}
	}
	for _, r := range all {
		if r.kind == kindRepeat {
			hits = append(hits, r.latency)
		}
	}
	runtimeLayer(layers, before, after, instrs)
	var bh, bm int64
	if stats.Baseline != nil {
		bh, bm = stats.Baseline.Hits, stats.Baseline.Misses
	}
	// The traced server computed every alone run it was sent: each one
	// missed its baseline store.
	layers["experiments.alone_s"] = metric{aloneS, "s"}
	layers["experiments.alone_runs"] = metric{float64(bm), "count"}
	layers["experiments.baseline_hits"] = metric{float64(bh), "count"}
	layers["experiments.baseline_misses"] = metric{float64(bm), "count"}
	layers["service.queue_wait_p50_s"] = metric{median(queue), "s"}
	layers["service.run_p50_s"] = metric{median(run), "s"}
	layers["service.overhead_p50_s"] = metric{median(overhead), "s"}
	layers["service.hit_latency_p50_s"] = metric{median(hits), "s"}
	layers["service.cache_hits"] = metric{float64(stats.CacheHits), "count"}
	layers["service.cache_misses"] = metric{float64(stats.CacheMisses), "count"}
	layers["service.journal_bytes"] = metric{float64(journal.bytes), "B"}
	layers["service.journal_records"] = metric{float64(journal.records), "count"}
	layers["service.checkpoint_writes"] = metric{float64(journal.checkpoints), "count"}
	setModel(layers, models)
	layers["bench.trace_overhead"] = metric{tracedWall / untracedWall, "ratio"}
	out.info["requests"] = len(all)
	out.info["simulating_requests"] = len(sims)
	return out, nil
}

// journalStats summarizes the server's write-ahead journal.
type journalStats struct {
	bytes, records, checkpoints int64
}

// readJournal reads the journal's line format, "<sha256 hex> <record
// JSON>" (DESIGN.md §17), counting records and checkpoint records.
func readJournal(path string) (journalStats, error) {
	var st journalStats
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		st.bytes += int64(len(line)) + 1
		_, payload, ok := strings.Cut(line, " ")
		if !ok {
			return st, errors.New("journal: malformed line")
		}
		var rec struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(payload), &rec); err != nil {
			return st, fmt.Errorf("journal: %w", err)
		}
		st.records++
		if rec.Type == "checkpoint" {
			st.checkpoints++
		}
	}
	return st, sc.Err()
}
