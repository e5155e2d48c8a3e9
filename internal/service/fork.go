package service

import (
	"errors"
	"fmt"

	"stfm/internal/sim"
)

// ErrNoSuchJob reports a fork request against an unknown parent (HTTP
// 404).
var ErrNoSuchJob = errors.New("service: no such job")

// ForkRequest is the POST /v1/jobs/{id}/fork body: fork the parent
// job's simulation at a warm-up cycle under one or more target
// policies. Each target becomes a regular job whose configuration is
// the parent's with Policy, ForkAtCycle, and WarmupPolicy set, and it
// runs that config like any other job: the parent's policy to AtCycle,
// then the target (sim.Config.ForkAtCycle). Children are fully
// content-addressed (the fork knobs enter the fingerprint), so repeat
// forks are cache hits, and they checkpoint and recover like any job.
type ForkRequest struct {
	// Policies lists the target schedulers, one child job each.
	Policies []sim.PolicyKind `json:"policies"`
	// AtCycle is the CPU cycle of the policy switch (must be positive).
	AtCycle int64 `json:"atCycle"`
	// TimeoutMS bounds each child's run time; 0 means no deadline.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// Fork expands a fork request against a parent job into child jobs,
// deduplicating against the result store exactly like Submit. The
// parent only contributes its configuration and workload, so it may be
// in any state: each child runs its own warm-up.
func (s *Server) Fork(parentID string, req ForkRequest) (*SubmitResponse, error) {
	s.mu.Lock()
	parent, ok := s.jobs[parentID]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoSuchJob
	}
	switch {
	case len(req.Policies) == 0:
		return nil, badRequest("fork needs at least one target policy")
	case req.AtCycle <= 0:
		return nil, badRequest("fork atCycle must be positive, got %d", req.AtCycle)
	case req.TimeoutMS < 0:
		return nil, badRequest("timeoutMs must be non-negative, got %d", req.TimeoutMS)
	case parent.cfg.ForkAtCycle != 0:
		return nil, badRequest("job %s is itself a fork child; fork the original job instead", parentID)
	}

	var cells []*job
	for _, pol := range req.Policies {
		cfg := parent.cfg
		cfg.Policy = pol
		cfg.ForkAtCycle = req.AtCycle
		cfg.WarmupPolicy = parent.cfg.Policy
		if err := cfg.Validate(); err != nil {
			return nil, &RequestError{Err: fmt.Errorf("fork target %q: %w", pol, err)}
		}
		j, err := s.newJob(cfg, parent.workload, req.TimeoutMS)
		if err != nil {
			return nil, err
		}
		j.forkOf = parentID
		cells = append(cells, j)
	}
	return s.admit(cells, "")
}
