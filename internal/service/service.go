// Package service turns the simulator into a long-running
// simulation-as-a-service server: an HTTP JSON API over a bounded job
// queue with explicit backpressure, a worker pool executing jobs
// through sim.RunContext (so per-job cancellation, deadlines, and the
// forward-progress watchdog all compose), and a deterministic
// content-addressed result cache — resubmitting an already-run
// configuration is a cache hit served without constructing a new
// sim.System, optionally surviving restarts via an on-disk spill.
//
// The paper's evaluation sweeps hundreds of (workload mix, policy,
// core-count) configurations; this is exactly the fan-out a job service
// with result caching amortizes. DESIGN.md Section 13 documents the
// architecture; cmd/stfm-server is the executable front end and Client
// the in-process consumer.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"stfm/internal/dram"
	"stfm/internal/experiments"
	"stfm/internal/memctrl"
	"stfm/internal/sim"
	"stfm/internal/store"
	"stfm/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Workers is the worker-pool size (simultaneously executing
	// jobs); 0 selects GOMAXPROCS.
	Workers int
	// QueueSize bounds the number of jobs waiting for a worker; 0
	// selects 64. A submission that would exceed it is rejected with
	// ErrQueueFull (HTTP 429).
	QueueSize int
	// CacheDir is the result cache's spill directory (store.Open); ""
	// keeps the cache memory-only.
	CacheDir string
	// SampleEvery is the progress-sampling interval attached to every
	// executed job, in DRAM cycles; 0 selects 5000, negative disables
	// progress reporting.
	SampleEvery int64
	// JournalDir enables the durable job journal (DESIGN.md §17): job
	// lifecycle records are written ahead to an fsynced WAL under this
	// directory and replayed at startup, so a crashed or restarted
	// server re-enqueues pending jobs and resumes running ones from
	// their last checkpoint. "" disables journaling (jobs die with the
	// process, the pre-§17 behavior).
	JournalDir string
	// CheckpointEvery is the checkpoint period for journaled jobs, in
	// CPU cycles; 0 selects 250000, negative disables checkpointing
	// (recovered jobs restart from cycle zero). Ignored without
	// JournalDir. Checkpoint boundaries are schedule-neutral, so the
	// period does not change results — only how much work a crash can
	// lose.
	CheckpointEvery int64
	// BaselineDir opens the shared alone-baseline store (DESIGN.md
	// §18): alone-shaped jobs (one benchmark under FR-FCFS, no fork
	// prefix, exactly the runs experiments.Runner.Alone issues) keep
	// their Results there instead of in the result cache. Pointing the
	// server and batch tools (stfm-experiments, stfm-sweep, stfm-bench
	// -baseline-dir) at the same directory gives them one alone-run
	// fleet. "" disables the store.
	BaselineDir string
	// Chaos installs the deterministic fault-injection harness on the
	// server's durability paths; nil runs fault-free. Test use.
	Chaos *Chaos
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Server owns the queue, worker pool, job table, and result stores. It
// serves HTTP through Handler and shuts down through Drain.
type Server struct {
	opts  Options
	queue *queue
	// cache and baseline hold completed jobs' Results, each job in
	// exactly one of them (storeFor). baseline is nil when
	// Options.BaselineDir is unset.
	cache    *store.Store
	baseline *store.Store
	start    time.Time

	// wal / ckptDir are the durable-journal state; nil/"" when
	// Options.JournalDir is unset. chaos is the fault-injection
	// harness (nil-safe).
	wal     *wal
	ckptDir string
	chaos   *Chaos

	// baseCtx parents every job context; abort cancels it when a
	// drain deadline forces running jobs to stop.
	baseCtx context.Context
	abort   context.CancelFunc

	wg sync.WaitGroup // worker goroutines

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // submission order, for listing
	seq       int64
	running   int
	completed int64
	failed    int64
	canceled  int64
	durations memctrl.LatencyHistogram // job wall times, milliseconds
}

// New builds a Server and starts its worker pool.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueSize == 0 {
		opts.QueueSize = 64
	}
	if opts.QueueSize < 0 {
		return nil, fmt.Errorf("service: negative queue size %d", opts.QueueSize)
	}
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 5000
	}
	cache, err := store.Open(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	var baseline *store.Store
	if opts.BaselineDir != "" {
		if baseline, err = store.Open(opts.BaselineDir); err != nil {
			return nil, err
		}
	}
	s := &Server{
		opts:     opts,
		cache:    cache,
		baseline: baseline,
		start:    time.Now(),
		jobs:     make(map[string]*job),
		chaos:    opts.Chaos,
	}
	if s.chaos != nil {
		cache.Fault = s.storeFault
		if baseline != nil {
			baseline.Fault = s.storeFault
		}
	}
	// Journal replay happens before the queue exists so the queue can be
	// sized to hold every re-enqueued job: recovery must never drop work
	// to backpressure meant for fresh submissions.
	var pending []*job
	if opts.JournalDir != "" {
		s.ckptDir = filepath.Join(opts.JournalDir, "checkpoints")
		if err := os.MkdirAll(s.ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: checkpoint dir: %w", err)
		}
		w, records, werr := openWAL(opts.JournalDir, s.chaos)
		if werr != nil {
			var walErr *WALError
			if !errors.As(werr, &walErr) {
				return nil, werr
			}
			// Mid-file damage: the valid prefix was recovered and the
			// damaged file quarantined. Loud but non-fatal.
			s.logf("journal: %v", werr)
		}
		s.wal = w
		pending = s.recoverJobs(replayJobs(records))
	}
	queueSize := opts.QueueSize
	if len(pending) > queueSize {
		queueSize = len(pending)
	}
	s.queue = newQueue(queueSize)
	if len(pending) > 0 {
		if err := s.queue.TryEnqueue(pending...); err != nil {
			return nil, fmt.Errorf("service: re-enqueue recovered jobs: %w", err)
		}
		s.logf("journal: recovered %d pending job(s)", len(pending))
	}
	s.baseCtx, s.abort = context.WithCancel(context.Background())
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recoverJobs rebuilds the job table from replayed journal state:
// terminal jobs reappear with their recorded outcome (done jobs served
// from their store), pending jobs are returned for re-enqueueing,
// resuming from their checkpoint when one was journaled. Journaled
// strings never become paths: a record naming an ID the server could
// not have issued is dropped, the key is recomputed from the config and
// workload, and the checkpoint path is derived from the ID. The job ID
// sequence advances past every recovered ID so new submissions cannot
// collide.
func (s *Server) recoverJobs(replays []jobReplay) []*job {
	var pending []*job
	for _, r := range replays {
		id := r.submit.Job
		if !issuedJobID(id) {
			s.logf("journal: job %q: not a server-issued ID, dropped", id)
			continue
		}
		j, err := buildJob(*r.submit.Config, r.submit.Workload, r.submit.TimeoutMS)
		if err != nil {
			s.logf("journal: job %s: unknown workload, dropped: %v", id, err)
			continue
		}
		j.id = id
		j.recovered = true
		if seq := parseJobSeq(id); seq > s.seq {
			s.seq = seq
		}
		switch {
		case r.done && r.complete.Status == StatusDone:
			if !s.serveStored(j) {
				// Journal says done but the result did not survive (the
				// store was memory-only, or the spill was corrupted):
				// recompute.
				j.resume = r.hasCkpt
				pending = append(pending, j)
			}
		case r.done:
			j.status = r.complete.Status
			if r.complete.Error != "" {
				j.err = errors.New(r.complete.Error)
			}
			j.finishedAt = time.Now()
		default:
			j.resume = r.hasCkpt
			pending = append(pending, j)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	return pending
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Submit validates and enqueues a job request, expanding matrix
// submissions into one job per (mix, policy) cell. Store hits complete
// immediately without queueing; for the rest, enqueueing is
// all-or-nothing — ErrQueueFull (nothing accepted) when the batch does
// not fit, ErrDraining after shutdown began. Validation failures
// return a *RequestError.
func (s *Server) Submit(req JobRequest) (*SubmitResponse, error) {
	cells, err := s.expand(req)
	if err != nil {
		return nil, err
	}
	return s.admit(cells, req.Matrix)
}

// admit completes the cells whose Results are already stored, journals
// and enqueues the rest, and publishes every cell.
func (s *Server) admit(cells []*job, matrix string) (*SubmitResponse, error) {
	var fresh []*job
	for _, j := range cells {
		if !s.serveStored(j) {
			fresh = append(fresh, j)
		}
	}
	if len(fresh) > 0 {
		// Write-ahead: each accepted job is journaled before it is
		// enqueued, so a crash after this point can never lose it. An
		// append failure degrades to the unjournaled pre-§17 behavior
		// for that job rather than rejecting the submission.
		for _, j := range fresh {
			cfg := j.cfg
			rec := walRecord{
				Type:      walSubmit,
				Job:       j.id,
				Config:    &cfg,
				Workload:  j.workload,
				TimeoutMS: j.timeout.Milliseconds(),
			}
			if err := s.wal.append(rec); err != nil {
				s.logf("job %s: %v", j.id, err)
			}
		}
		if err := s.queue.TryEnqueue(fresh...); err != nil {
			return nil, err
		}
	}
	resp := &SubmitResponse{Matrix: matrix}
	s.mu.Lock()
	for _, j := range cells {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.mu.Unlock()
	for _, j := range cells {
		resp.Jobs = append(resp.Jobs, j.info())
	}
	return resp, nil
}

// RequestError reports an invalid submission (HTTP 400).
type RequestError struct{ Err error }

// Error implements error.
func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause.
func (e *RequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Err: fmt.Errorf(format, args...)}
}

// expand turns a request into its job cells: one for a workload
// submission, mixes x policies for a matrix submission. Every cell is
// fully validated and fingerprinted.
func (s *Server) expand(req JobRequest) ([]*job, error) {
	if req.Config.Streams != nil || req.Config.Telemetry != nil {
		return nil, badRequest("config must not carry Streams or Telemetry attachments")
	}
	switch {
	case req.Matrix == "" && len(req.Workload) == 0:
		return nil, badRequest("submission needs a workload (benchmark names) or a matrix name")
	case req.Matrix != "" && len(req.Workload) > 0:
		return nil, badRequest("workload and matrix are mutually exclusive")
	case req.TimeoutMS < 0:
		return nil, badRequest("timeoutMs must be non-negative, got %d", req.TimeoutMS)
	}
	if err := req.Config.Validate(); err != nil {
		return nil, &RequestError{Err: err}
	}
	if req.Matrix == "" {
		j, err := s.newJob(req.Config, req.Workload, req.TimeoutMS)
		if err != nil {
			return nil, err
		}
		return []*job{j}, nil
	}
	spec, err := experiments.MatrixByID(req.Matrix)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	// A matrix without a protocol plane expands under the submission's
	// own protocol — the sentinel empty entry keeps the loop uniform.
	protos := spec.Protocols
	if len(protos) == 0 {
		protos = []dram.Protocol{""}
	}
	var cells []*job
	for _, mix := range spec.Mixes {
		names := make([]string, len(mix.Profiles))
		for i, p := range mix.Profiles {
			names[i] = p.Name
		}
		for _, pol := range spec.Policies {
			for _, proto := range protos {
				cfg := req.Config
				cfg.Policy = pol
				if proto != "" {
					cfg.Protocol = proto
				}
				j, err := s.newJob(cfg, names, req.TimeoutMS)
				if err != nil {
					cell := fmt.Sprintf("%s/%s", mix.Name, pol)
					if proto != "" {
						cell += "/" + string(proto)
					}
					return nil, fmt.Errorf("matrix %s cell %s: %w", spec.ID, cell, err)
				}
				cells = append(cells, j)
			}
		}
	}
	return cells, nil
}

// aloneShaped reports whether a job is exactly an alone-run baseline:
// one benchmark under FR-FCFS with no fork prefix, the shape
// experiments.Runner.Alone computes for every Talone denominator.
func aloneShaped(cfg sim.Config, workload []string) bool {
	return len(workload) == 1 && cfg.Policy == sim.PolicyFRFCFS && cfg.ForkAtCycle == 0
}

// storeFor returns the store that holds a job's Result: the baseline
// store for an alone-shaped job when one is open, the result cache for
// every other job. Each Result is therefore looked up and spilled in
// exactly one place, under the job's key.
func (s *Server) storeFor(j *job) *store.Store {
	if s.baseline != nil && aloneShaped(j.cfg, j.workload) {
		return s.baseline
	}
	return s.cache
}

// serveStored completes a not-yet-published job from its store and
// reports whether its Result was there. Keys are content addresses, so
// a stored Result is bit-identical to a fresh run's.
func (s *Server) serveStored(j *job) bool {
	res, ok := s.storeFor(j).Get(j.fp)
	if ok {
		j.status = StatusDone
		j.cached = true
		j.result = res
		j.finishedAt = time.Now()
	}
	return ok
}

// storeFault is both stores' fault hook: the chaos points cache.put
// (one Result spill) and cache.get (one spill load).
func (s *Server) storeFault(op string, data []byte) ([]byte, error) {
	point := "cache." + op
	action, ok := s.chaos.at(point)
	if !ok {
		return data, nil
	}
	switch action {
	case ActionError:
		return nil, ErrInjected
	case ActionCorrupt:
		corruptByte(data)
	case ActionCrash:
		// Only a spill runs on a worker, whose death the harness
		// simulates; a crash rule on cache.get is inert.
		if op == "put" {
			panic(chaosCrash{point: point})
		}
	}
	return data, nil
}

// newJob resolves the workload and builds one queued job with the next
// server-issued ID.
func (s *Server) newJob(cfg sim.Config, workload []string, timeoutMS int64) (*job, error) {
	j, err := buildJob(cfg, workload, timeoutMS)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("j%d-%s", s.seq, j.fp[:8])
	s.mu.Unlock()
	return j, nil
}

// buildJob resolves the workload and builds a queued job keyed by
// store.Key; the caller assigns its ID.
func buildJob(cfg sim.Config, workload []string, timeoutMS int64) (*job, error) {
	profs, err := experiments.Profiles(workload...)
	if err != nil {
		return nil, err
	}
	j := &job{
		cfg:         cfg,
		workload:    append([]string(nil), workload...),
		profiles:    profs,
		fp:          store.Key(cfg, workload),
		maxCycles:   cfg.CycleBudget(profs),
		timeout:     time.Duration(timeoutMS) * time.Millisecond,
		submittedAt: time.Now(),
		status:      StatusQueued,
	}
	for _, t := range cfg.InstrTargets(profs) {
		j.targetInstr += t
	}
	return j, nil
}

// Job returns a job's current state.
func (s *Server) Job(id string) (JobInfo, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, false
	}
	return j.info(), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	table := s.jobs
	s.mu.Unlock()
	out := make([]JobInfo, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		j := table[id]
		s.mu.Unlock()
		out = append(out, j.info())
	}
	return out
}

// Result returns a job's result view.
func (s *Server) Result(id string) (ResultResponse, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ResultResponse{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rr := ResultResponse{ID: j.id, Status: j.status, Cached: j.cached}
	if j.err != nil {
		rr.Error = j.err.Error()
	}
	if j.status == StatusDone {
		rr.Result = j.result
	}
	return rr, true
}

// Cancel cancels a job: queued jobs terminate immediately (the worker
// skips them on dequeue), running jobs have their context canceled and
// finish as canceled with a partial result. Terminal jobs are left
// untouched. The second return reports whether the job exists.
func (s *Server) Cancel(id string) (JobInfo, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, false
	}
	j.mu.Lock()
	var journalCancel bool
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.err = sim.ErrCanceled
		j.finishedAt = time.Now()
		journalCancel = true
		s.mu.Lock()
		s.canceled++
		s.mu.Unlock()
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	if journalCancel {
		// Canceled-while-queued jobs never reach runJob's completion
		// journaling; record the terminal state here or a restart would
		// resurrect them.
		rec := walRecord{Type: walComplete, Job: j.id, Status: StatusCanceled, Error: sim.ErrCanceled.Error()}
		if err := s.wal.append(rec); err != nil {
			s.logf("job %s: %v", j.id, err)
		}
	}
	return j.info(), true
}

// worker consumes jobs until the queue closes. A simulated process
// death (fault injection, DESIGN.md §17) retires the worker exactly as
// a kill -9 would: mid-job, with no completion bookkeeping run.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue.Chan() {
		if s.runJob(j) {
			return
		}
	}
}

// runJob executes one dequeued job and reports whether a simulated
// crash killed the worker mid-job (in which case every completion side
// effect — journal record, counters, result spill — was skipped, leaving
// exactly the state a real crash leaves for the next boot to recover).
func (s *Server) runJob(j *job) (crashed bool) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(chaosCrash); ok {
				crashed = true
				return
			}
			panic(v)
		}
	}()
	j.mu.Lock()
	if j.status != StatusQueued {
		// Canceled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	if s.baseCtx.Err() != nil {
		// Drain deadline already forced an abort: fail fast instead
		// of spinning up a run that would immediately cancel.
		j.status = StatusCanceled
		j.err = sim.ErrCanceled
		j.finishedAt = time.Now()
		j.mu.Unlock()
		s.mu.Lock()
		s.canceled++
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, j.timeout)
	}
	cfg := j.cfg
	if s.opts.SampleEvery > 0 {
		j.col = telemetry.New(telemetry.Options{SampleEvery: s.opts.SampleEvery})
		cfg.Telemetry = j.col
	}
	j.status = StatusRunning
	j.cancel = cancel
	j.startedAt = time.Now()
	j.mu.Unlock()

	s.mu.Lock()
	s.running++
	s.mu.Unlock()

	if werr := s.wal.append(walRecord{Type: walStart, Job: j.id}); werr != nil {
		s.logf("job %s: %v", j.id, werr)
	}

	res, err := s.execute(ctx, j, cfg)
	cancel()

	if j.crashWasRequested() {
		// A checkpoint-write crash rule fired mid-run: die here, before
		// any completion side effect, exactly like the injected kill.
		panic(chaosCrash{point: "checkpoint.write"})
	}

	var status JobStatus
	switch {
	case err == nil:
		status = StatusDone
		// Spill the result before publishing or journaling completion:
		// a client that sees "done" may read the spill from another
		// process on the same directory, and a "done" record implies
		// the result is retrievable, so a crash before either re-runs
		// the job instead of losing its result.
		if serr := s.storeFor(j).Put(j.fp, res); serr != nil {
			s.logf("job %s: %v", j.id, serr)
		}
	case errors.Is(err, sim.ErrCanceled):
		status = StatusCanceled
	default:
		// Deadline expiry, watchdog stalls, invariant violations,
		// recovered panics, bad configs that slipped past Validate —
		// all structured sim errors, all terminal failures.
		status = StatusFailed
	}

	j.mu.Lock()
	j.cancel = nil
	j.finishedAt = time.Now()
	j.result = res
	j.err = err
	j.status = status
	wall := j.finishedAt.Sub(j.startedAt)
	j.mu.Unlock()

	rec := walRecord{Type: walComplete, Job: j.id, Status: status}
	if err != nil {
		rec.Error = err.Error()
	}
	if werr := s.wal.append(rec); werr != nil {
		s.logf("job %s: %v", j.id, werr)
	}
	if s.ckptDir != "" {
		// The journal has the job's terminal state; its checkpoint is
		// dead weight now.
		os.Remove(s.checkpointPath(j.id))
	}

	s.mu.Lock()
	s.running--
	switch status {
	case StatusDone:
		s.completed++
	case StatusCanceled:
		s.canceled++
	default:
		s.failed++
	}
	s.durations.Record(wall.Milliseconds())
	s.mu.Unlock()
	if err != nil {
		s.logf("job %s: %s: %v", j.id, status, err)
	} else {
		s.logf("job %s: done in %s", j.id, wall.Round(time.Millisecond))
	}
	return false
}

// defaultCheckpointEvery is the checkpoint period (CPU cycles) when
// journaling is on and Options.CheckpointEvery is 0.
const defaultCheckpointEvery = 250_000

// execute runs one job's simulation: restored from its checkpoint when
// recovery handed it one (falling back to a fresh run — with the
// damaged checkpoint quarantined — when the file is missing or fails
// verification), checkpointed periodically when journaling is enabled.
func (s *Server) execute(ctx context.Context, j *job, cfg sim.Config) (*sim.Result, error) {
	sink := s.checkpointSink(j)
	if j.resume {
		if sys := s.restoreSystem(j); sys != nil {
			if sink != nil {
				return sys.RunCheckpointed(ctx, sink)
			}
			return sys.RunContext(ctx)
		}
	}
	sys, err := sim.NewSystem(cfg, j.profiles)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		return sys.RunCheckpointed(ctx, sink)
	}
	return sys.RunContext(ctx)
}

// restoreSystem rebuilds a job's simulator from its checkpoint. Any
// failure (missing file, checksum mismatch, shape validation, or a
// snapshot of another run) quarantines the file as .corrupt and
// returns nil so the caller reruns from scratch: a damaged or foreign
// checkpoint costs recomputation, never a wrong result and never a
// lost job.
func (s *Server) restoreSystem(j *job) *sim.System {
	path := s.checkpointPath(j.id)
	data, err := os.ReadFile(path)
	if err != nil {
		s.logf("job %s: checkpoint unreadable, running from scratch: %v", j.id, err)
		return nil
	}
	sys, err := sim.Restore(data, &sim.RestoreOptions{Telemetry: j.col})
	if err == nil && !sys.Simulates(j.cfg, j.workload) {
		err = errors.New("snapshot of another run")
	}
	if err != nil {
		if qerr := store.Quarantine(path); qerr != nil {
			s.logf("job %s: %v", j.id, qerr)
		}
		s.logf("job %s: checkpoint rejected (quarantined as .corrupt), running from scratch: %v", j.id, err)
		return nil
	}
	j.mu.Lock()
	j.resumedFromCycle = sys.Now()
	j.mu.Unlock()
	s.logf("job %s: resumed from checkpoint at cycle %d", j.id, sys.Now())
	return sys
}

// checkpointPath is where a journaled job's checkpoint lives. It is
// derived from the server-issued job ID by the writer and by recovery
// alike; the journal never supplies a path.
func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.ckptDir, id+".ckpt")
}

// checkpointSink builds the periodic-snapshot sink for a journaled job;
// nil when journaling or checkpointing is disabled.
func (s *Server) checkpointSink(j *job) *sim.CheckpointSink {
	if s.wal == nil || s.ckptDir == "" {
		return nil
	}
	every := s.opts.CheckpointEvery
	if every == 0 {
		every = defaultCheckpointEvery
	}
	if every < 0 {
		return nil
	}
	return &sim.CheckpointSink{
		Every: every,
		Write: func(cycle int64, data []byte) error {
			return s.writeCheckpoint(j, cycle, data)
		},
	}
}

// writeCheckpoint atomically persists one snapshot and journals it.
// The checkpoint record is appended only after the rename, so the
// journal never points at a half-written file.
func (s *Server) writeCheckpoint(j *job, cycle int64, data []byte) error {
	if action, ok := s.chaos.at("checkpoint.write"); ok {
		switch action {
		case ActionError:
			return fmt.Errorf("service: checkpoint write: %w", ErrInjected)
		case ActionCorrupt:
			data = append([]byte(nil), data...)
			corruptByte(data)
		case ActionCrash:
			// Simulated death at the checkpoint boundary. The sink runs
			// inside the simulator's panic recovery, so a direct panic
			// here would be misread as a simulation failure; instead the
			// job is flagged and its context canceled, and the worker
			// re-raises the death once the run unwinds.
			j.requestCrash()
			return fmt.Errorf("service: checkpoint write: %w", ErrInjected)
		}
	}
	if err := store.WriteFile(s.checkpointPath(j.id), data); err != nil {
		return fmt.Errorf("service: checkpoint write: %w", err)
	}
	return s.wal.append(walRecord{Type: walCheckpoint, Job: j.id, Cycle: cycle})
}

// Stats is the GET /v1/stats body.
type Stats struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Workers       int     `json:"workers"`
	Running       int     `json:"running"`
	QueueDepth    int     `json:"queueDepth"`
	QueueCapacity int     `json:"queueCapacity"`
	Submitted     int64   `json:"submitted"`
	Completed     int64   `json:"completed"`
	Failed        int64   `json:"failed"`
	Canceled      int64   `json:"canceled"`
	CacheEntries  int     `json:"cacheEntries"`
	CacheHits     int64   `json:"cacheHits"`
	CacheMisses   int64   `json:"cacheMisses"`
	// Job wall-time distribution in milliseconds (power-of-two bucket
	// resolution, reusing the memctrl latency histogram).
	JobP50Ms int64 `json:"jobP50Ms"`
	JobP95Ms int64 `json:"jobP95Ms"`
	JobMaxMs int64 `json:"jobMaxMs"`
	// Baseline reports the shared alone-baseline store's counters
	// (Options.BaselineDir); absent when the store is disabled.
	Baseline *store.Stats `json:"baseline,omitempty"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	cache := s.cache.Stats()
	var baseline *store.Stats
	if s.baseline != nil {
		bs := s.baseline.Stats()
		baseline = &bs
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Baseline:      baseline,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.opts.Workers,
		Running:       s.running,
		QueueDepth:    s.queue.Depth(),
		QueueCapacity: s.queue.Cap(),
		Submitted:     s.seq,
		Completed:     s.completed,
		Failed:        s.failed,
		Canceled:      s.canceled,
		CacheEntries:  cache.Entries,
		CacheHits:     cache.Hits,
		CacheMisses:   cache.Misses,
		JobP50Ms:      s.durations.Percentile(0.50),
		JobP95Ms:      s.durations.Percentile(0.95),
		JobMaxMs:      s.durations.Max(),
	}
}

// Drain shuts the server down gracefully: intake stops (submissions
// get ErrDraining), queued jobs keep executing, and Drain blocks until
// the pool is idle. If ctx expires first, running and still-queued jobs
// are aborted through their contexts (finishing as canceled with
// partial results) and Drain waits for the pool to wind down before
// returning ctx's error. Always returns with every worker goroutine
// exited.
func (s *Server) Drain(ctx context.Context) error {
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.abort()
		<-done
	}
	s.abort() // release the base context either way
	if cerr := s.wal.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
