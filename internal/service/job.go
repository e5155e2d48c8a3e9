package service

import (
	"context"
	"sync"
	"time"

	"stfm/internal/sim"
	"stfm/internal/telemetry"
	"stfm/internal/trace"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// The job lifecycle: queued -> running -> one of done/failed/canceled.
// Cache hits and canceled-while-queued jobs skip the running state.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// JobRequest is the POST /v1/jobs body: a simulation configuration plus
// either an explicit workload mix (benchmark profile names, one per
// core) or the name of a predefined experiment matrix, which the server
// expands into one job per (mix, policy) cell.
type JobRequest struct {
	// Config parameterizes the run. Policy, budgets, DRAM overrides,
	// weights — everything sim.Config accepts over JSON. For matrix
	// submissions the config is the per-cell base; each cell overrides
	// Policy with its matrix column.
	Config sim.Config `json:"config"`
	// Workload lists benchmark profile names, one per core.
	Workload []string `json:"workload,omitempty"`
	// Matrix names a predefined experiment matrix
	// (experiments.MatrixIDs lists them). Mutually exclusive with
	// Workload.
	Matrix string `json:"matrix,omitempty"`
	// TimeoutMS bounds the job's run time once it starts executing;
	// 0 means no per-job deadline. Expiry fails the job with the
	// sim.ErrDeadline cause.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// Progress reports how far a running job has advanced, read from the
// job's latest telemetry sample (the interval sampler of
// internal/telemetry, attached to every executed job).
type Progress struct {
	// Cycle is the CPU cycle of the latest sample.
	Cycle int64 `json:"cycle"`
	// MaxCycles is the run's cycle budget (sim.Config.CycleBudget).
	MaxCycles int64 `json:"maxCycles"`
	// CommittedInstructions sums committed instructions across
	// threads as of the latest sample.
	CommittedInstructions int64 `json:"committedInstructions"`
	// TargetInstructions sums the per-thread instruction targets.
	TargetInstructions int64 `json:"targetInstructions"`
	// Fraction is CommittedInstructions/TargetInstructions clamped to
	// [0, 1]; 1 for finished jobs.
	Fraction float64 `json:"fraction"`
}

// JobInfo is a job's externally visible state (GET /v1/jobs/{id}).
type JobInfo struct {
	ID       string         `json:"id"`
	Status   JobStatus      `json:"status"`
	Policy   sim.PolicyKind `json:"policy"`
	Workload []string       `json:"workload"`
	// Fingerprint is the job's content address, store.Key(Config,
	// workload): the key its Result is stored under.
	Fingerprint string `json:"fingerprint"`
	// Cached marks jobs served from a result store without a run.
	Cached bool `json:"cached"`
	// Error carries the failure or cancellation cause for terminal
	// non-done jobs.
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
	// Recovered marks jobs reconstructed from the durable journal after
	// a server restart (DESIGN.md §17) rather than submitted to this
	// process.
	Recovered bool `json:"recovered,omitempty"`
	// ForkOf names the parent job for children created through
	// POST /v1/jobs/{id}/fork.
	ForkOf string `json:"forkOf,omitempty"`
	// ResumedFromCycle is the CPU cycle the job's execution resumed
	// from when it was restored from a checkpoint instead of starting
	// over; 0 for jobs that ran from cycle zero.
	ResumedFromCycle int64     `json:"resumedFromCycle,omitempty"`
	SubmittedAt      time.Time `json:"submittedAt"`
	// StartedAt / FinishedAt are zero until the job reaches the
	// corresponding state.
	StartedAt  time.Time `json:"startedAt"`
	FinishedAt time.Time `json:"finishedAt"`
}

// SubmitResponse is the POST /v1/jobs reply: one JobInfo per created
// job (a single entry for workload submissions, one per cell for matrix
// submissions).
type SubmitResponse struct {
	Jobs   []JobInfo `json:"jobs"`
	Matrix string    `json:"matrix,omitempty"`
}

// ResultResponse is the GET /v1/jobs/{id}/result reply.
type ResultResponse struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Cached bool      `json:"cached"`
	Error  string    `json:"error,omitempty"`
	// Result is present only when Status is done.
	Result *sim.Result `json:"result,omitempty"`
}

// job is the server-side job state. The mutex guards every mutable
// field; the immutable identity fields (id, cfg, profiles, fp, ...) are
// set before the job is published and read freely.
type job struct {
	id       string
	cfg      sim.Config
	workload []string
	profiles []trace.Profile
	fp       string
	// targetInstr / maxCycles are the progress denominators, computed
	// at submission from the same formulas the run uses.
	targetInstr int64
	maxCycles   int64
	timeout     time.Duration
	submittedAt time.Time

	// recovered / resume are set during journal replay, before the job
	// is published: recovered marks the job as reconstructed from the
	// WAL, resume that a checkpoint was journaled for it (at
	// Server.checkpointPath).
	recovered bool
	resume    bool

	// forkOf / fork are set on fork children before publication: forkOf
	// names the parent job, fork points at the request's shared warm-up
	// snapshot (nil on recovered children, which replay the warm-up via
	// cfg.ForkAtCycle instead).
	forkOf string
	fork   *forkGroup

	mu         sync.Mutex
	status     JobStatus
	cached     bool
	result     *sim.Result
	err        error
	cancel     context.CancelFunc // non-nil exactly while running
	col        *telemetry.Collector
	startedAt  time.Time
	finishedAt time.Time
	// resumedFromCycle records where a checkpoint restore landed.
	resumedFromCycle int64
	// crashRequested is set by the fault-injection harness when a
	// checkpoint-write crash rule fires mid-run: the worker must unwind
	// as a dead process, skipping every piece of completion bookkeeping.
	crashRequested bool
}

// requestCrash flags the job for simulated process death and aborts
// its run so the worker unwinds promptly.
func (j *job) requestCrash() {
	j.mu.Lock()
	j.crashRequested = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// crashWasRequested reports whether a crash rule fired during the run.
func (j *job) crashWasRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.crashRequested
}

// info snapshots the job's wire representation.
func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	inf := JobInfo{
		ID:               j.id,
		Status:           j.status,
		Policy:           j.cfg.Policy,
		Workload:         j.workload,
		Fingerprint:      j.fp,
		Cached:           j.cached,
		Recovered:        j.recovered,
		ForkOf:           j.forkOf,
		ResumedFromCycle: j.resumedFromCycle,
		Progress:         j.progressLocked(),
		SubmittedAt:      j.submittedAt,
		StartedAt:        j.startedAt,
		FinishedAt:       j.finishedAt,
	}
	if j.err != nil {
		inf.Error = j.err.Error()
	}
	return inf
}

// progressLocked derives Progress from the job's latest telemetry
// sample; callers hold j.mu.
func (j *job) progressLocked() Progress {
	p := Progress{MaxCycles: j.maxCycles, TargetInstructions: j.targetInstr}
	if j.status == StatusDone {
		p.Fraction = 1
		if j.result != nil {
			p.Cycle = j.result.TotalCycles
			for _, th := range j.result.Threads {
				p.CommittedInstructions += th.Instructions
			}
		}
		return p
	}
	if j.col == nil || j.col.Series == nil {
		return p
	}
	if s, ok := j.col.Series.Last(); ok {
		p.Cycle = s.Cycle
		for _, c := range s.Committed {
			p.CommittedInstructions += c
		}
		if j.targetInstr > 0 {
			p.Fraction = float64(p.CommittedInstructions) / float64(j.targetInstr)
			if p.Fraction > 1 {
				p.Fraction = 1
			}
		}
	}
	return p
}
