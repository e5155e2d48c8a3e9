package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime/debug"

	"stfm/internal/cache"
	"stfm/internal/cpu"
	"stfm/internal/memctrl"
	"stfm/internal/telemetry"
	"stfm/internal/trace"
)

// This file implements whole-system checkpoint/restore (DESIGN.md §17).
// A checkpoint is a self-describing binary envelope:
//
//	magic "STFMCKPT" | version (u32 BE) | payload length (u64 BE) |
//	JSON payload | SHA-256 of payload
//
// The payload carries the run's Config (Streams and Telemetry are
// process-local attachments and excluded by their json:"-" tags), the
// workload profiles, and the mutable state of every component. Restore
// rebuilds the system through the ordinary NewSystem constructor —
// deriving every piece of configuration exactly as an uninterrupted
// run would — and then overwrites the mutable state, so a restored run
// continues bit-identically (TestCheckpointRestoreEquivalence).
//
// What is deliberately NOT checkpointed: scheduling memos and cache
// epochs (recomputed, schedule-neutral by construction) and telemetry
// buffers (observers). Nothing needs re-linking on restore: a read
// request carries its consumer's tag (the load's issue sequence number
// in direct mode) and every MSHR waiter and cache-hit completion is an
// issue sequence number, so the restored components reach each other
// through the same tags the original run used.
//
// Version 2 added the request tag; a version-1 checkpoint is rejected
// at the envelope, which the service treats like any unreadable
// checkpoint: the job reruns from scratch.

const (
	checkpointMagic   = "STFMCKPT"
	checkpointVersion = 2
	// envelope layout offsets
	ckptHeaderLen = len(checkpointMagic) + 4 + 8
)

// CheckpointError is the structured failure mode of checkpoint
// encoding, decoding, and restore. Arbitrary corrupt input yields a
// *CheckpointError — never a panic and never a silently wrong System
// (FuzzCheckpointDecode pins this).
type CheckpointError struct {
	// Stage identifies where the failure occurred: "save", "envelope",
	// "decode", or "restore".
	Stage string
	// Err is the underlying cause.
	Err error
}

// Error implements the error interface.
func (e *CheckpointError) Error() string {
	return fmt.Sprintf("sim: checkpoint %s: %v", e.Stage, e.Err)
}

// Unwrap supports errors.Is/As.
func (e *CheckpointError) Unwrap() error { return e.Err }

func ckptErr(stage string, format string, args ...any) *CheckpointError {
	return &CheckpointError{Stage: stage, Err: fmt.Errorf(format, args...)}
}

// checkpointPayload is the JSON body of a checkpoint.
type checkpointPayload struct {
	Config   Config          `json:"config"`
	Profiles []trace.Profile `json:"profiles"`

	Now          int64          `json:"now"`
	Frozen       []bool         `json:"frozen"`
	Results      []ThreadResult `json:"results"`
	Targets      []int64        `json:"targets"`
	SampleEvery  int64          `json:"sampleEvery"`
	NextSampleAt int64          `json:"nextSampleAt"`

	Generators  []trace.GeneratorState  `json:"generators,omitempty"`
	Cores       []cpu.CoreState         `json:"cores"`
	Hierarchies []cache.HierarchyState  `json:"hierarchies,omitempty"`
	Controller  memctrl.ControllerState `json:"controller"`
	// Policy is the scheduler's serialized registers (absent for the
	// stateless FR-FCFS and FCFS).
	Policy json.RawMessage `json:"policy,omitempty"`
}

// Checkpoint serializes the system's complete mutable state. The
// system must be quiescent in the sense of RunContext's loop: between
// steps, not mid-Tick. Systems built over Config.Streams cannot be
// checkpointed — user streams are opaque and unserializable; only the
// synthetic generators (the paper's workloads) round-trip.
func (s *System) Checkpoint() ([]byte, error) {
	if s.cfg.Streams != nil {
		return nil, ckptErr("save", "systems with user-supplied Streams cannot be checkpointed")
	}
	p := checkpointPayload{
		Config:       s.cfg,
		Profiles:     s.profiles,
		Now:          s.now,
		Frozen:       s.frozen,
		Results:      s.results,
		Targets:      s.targets,
		SampleEvery:  s.sampleEvery,
		NextSampleAt: s.nextSampleAt,
		Controller:   s.ctrl.SaveState(),
	}
	for _, g := range s.gens {
		p.Generators = append(p.Generators, g.SaveState())
	}
	for _, c := range s.cores {
		p.Cores = append(p.Cores, c.SaveState())
	}
	for _, h := range s.hier {
		p.Hierarchies = append(p.Hierarchies, h.SaveState())
	}
	if sp, ok := s.policy.(memctrl.StatefulPolicy); ok {
		raw, err := sp.SaveState()
		if err != nil {
			return nil, &CheckpointError{Stage: "save", Err: err}
		}
		p.Policy = raw
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return nil, &CheckpointError{Stage: "save", Err: err}
	}
	return sealCheckpoint(payload), nil
}

// sealCheckpoint wraps a JSON payload in the checkpoint envelope.
func sealCheckpoint(payload []byte) []byte {
	buf := make([]byte, 0, ckptHeaderLen+len(payload)+sha256.Size)
	buf = append(buf, checkpointMagic...)
	buf = binary.BigEndian.AppendUint32(buf, checkpointVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	return append(buf, sum[:]...)
}

// decodeCheckpoint verifies the envelope and unmarshals the payload.
func decodeCheckpoint(data []byte) (*checkpointPayload, error) {
	if len(data) < ckptHeaderLen+sha256.Size {
		return nil, ckptErr("envelope", "truncated: %d bytes, envelope needs at least %d", len(data), ckptHeaderLen+sha256.Size)
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, ckptErr("envelope", "bad magic %q", data[:len(checkpointMagic)])
	}
	ver := binary.BigEndian.Uint32(data[len(checkpointMagic):])
	if ver != checkpointVersion {
		return nil, ckptErr("envelope", "unsupported version %d (supported: %d)", ver, checkpointVersion)
	}
	plen := binary.BigEndian.Uint64(data[len(checkpointMagic)+4:])
	if plen != uint64(len(data)-ckptHeaderLen-sha256.Size) {
		return nil, ckptErr("envelope", "payload length %d does not match envelope size %d", plen, len(data))
	}
	payload := data[ckptHeaderLen : len(data)-sha256.Size]
	want := data[len(data)-sha256.Size:]
	sum := sha256.Sum256(payload)
	for i := range want {
		if sum[i] != want[i] {
			return nil, ckptErr("envelope", "checksum mismatch: payload corrupted")
		}
	}
	var p checkpointPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, &CheckpointError{Stage: "decode", Err: err}
	}
	return &p, nil
}

// RestoreOptions re-attaches the process-local pieces a checkpoint
// cannot carry.
type RestoreOptions struct {
	// Telemetry re-attaches a collector (checkpoints do not carry
	// telemetry buffers; a restored run's series restarts empty).
	Telemetry *telemetry.Collector
	// Policy, if non-nil, forks the checkpoint under a different
	// scheduler: the machine state (queues, banks, cores, generators) is
	// restored exactly, but the scheduler is a FRESH instance of the
	// given kind — the snapshot's policy registers are discarded, even
	// when the kinds match — and the controller's cached scheduling
	// state is normalized as if the policy had been switched at the
	// snapshot cycle. The continuation is bit-identical to a scratch run
	// with Config{Policy: *Policy, WarmupPolicy: <saved policy>,
	// ForkAtCycle: <snapshot cycle>} (TestForkEquivalence pins it),
	// which is what lets one warm-up run fan out under K policies.
	// The restored system's Config records that fork (Policy,
	// WarmupPolicy = the saved policy, ForkAtCycle = the snapshot
	// cycle), so its own checkpoints restore, and answer Simulates, as
	// the scratch run it continues. A snapshot at cycle 0, or of a run
	// that had itself forked, restores as a plain run of Policy.
	Policy *PolicyKind
}

// Restore rebuilds a System from a Checkpoint blob. The returned
// system continues bit-identically to the run that took the snapshot.
// All failures — corrupt envelopes, truncated payloads, shape
// mismatches, completions naming no in-flight load — surface as a
// *CheckpointError.
func Restore(data []byte, opts *RestoreOptions) (sys *System, err error) {
	defer func() {
		// Corrupt-but-well-shaped input could trip invariants deep in
		// component constructors; surface those as structured errors,
		// never a crash.
		if v := recover(); v != nil {
			sys = nil
			err = &CheckpointError{Stage: "restore", Err: panicErr(v)}
		}
	}()
	p, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	cfg := p.Config
	cfg.Streams = nil
	cfg.Telemetry = nil
	forked := false
	if opts != nil {
		cfg.Telemetry = opts.Telemetry
		if opts.Policy != nil {
			forked = true
			cfg.Policy = *opts.Policy
			cfg.ForkAtCycle = 0
			cfg.WarmupPolicy = ""
		}
	}
	s, err := NewSystem(cfg, p.Profiles)
	if err != nil {
		return nil, &CheckpointError{Stage: "restore", Err: err}
	}
	if forked && p.Now > 0 && p.Config.ForkAtCycle == 0 {
		// runLoop's s.now guard skips the switch this restore already made.
		s.cfg.ForkAtCycle = p.Now
		s.cfg.WarmupPolicy = p.Config.Policy
	}
	// A checkpoint of a fork-mode scratch run taken at-or-after its
	// switch cycle carries the TARGET policy's registers, but NewSystem
	// built the warm-up scheduler; rebuild the target before its state
	// is restored below. runLoop's s.now guard then skips re-switching.
	if !forked && cfg.ForkAtCycle > 0 && p.Now >= cfg.ForkAtCycle {
		s.stfm = nil
		tp, perr := s.buildPolicy(cfg.Policy, s.ctrl.Config())
		if perr != nil {
			return nil, &CheckpointError{Stage: "restore", Err: perr}
		}
		s.policy = tp
		s.ctrl.SetPolicy(tp)
	}
	n := len(s.cores)
	if len(p.Cores) != n || len(p.Frozen) != n || len(p.Results) != n || len(p.Targets) != n {
		return nil, ckptErr("restore", "payload has %d/%d/%d/%d core entries, workload has %d cores",
			len(p.Cores), len(p.Frozen), len(p.Results), len(p.Targets), n)
	}
	if len(p.Generators) != len(s.gens) {
		return nil, ckptErr("restore", "payload has %d generator states, system has %d generators", len(p.Generators), len(s.gens))
	}
	if len(p.Hierarchies) != len(s.hier) {
		return nil, ckptErr("restore", "payload has %d hierarchy states, system has %d hierarchies", len(p.Hierarchies), len(s.hier))
	}
	if p.Now < 0 {
		return nil, ckptErr("restore", "negative cycle %d", p.Now)
	}
	for i, g := range s.gens {
		if err := g.RestoreState(p.Generators[i]); err != nil {
			return nil, &CheckpointError{Stage: "restore", Err: err}
		}
	}
	for i, c := range s.cores {
		if err := c.RestoreState(p.Cores[i]); err != nil {
			return nil, &CheckpointError{Stage: "restore", Err: err}
		}
	}
	for i, h := range s.hier {
		if err := h.RestoreState(p.Hierarchies[i]); err != nil {
			return nil, &CheckpointError{Stage: "restore", Err: err}
		}
	}
	if err := s.ctrl.RestoreState(p.Controller); err != nil {
		return nil, &CheckpointError{Stage: "restore", Err: err}
	}
	if err := s.checkTags(p); err != nil {
		return nil, err
	}
	if p.Policy != nil && !forked {
		sp, ok := s.policy.(memctrl.StatefulPolicy)
		if !ok {
			return nil, ckptErr("restore", "payload carries %s policy state but the policy is stateless", cfg.Policy)
		}
		if err := sp.RestoreState(p.Policy); err != nil {
			return nil, &CheckpointError{Stage: "restore", Err: err}
		}
	}
	s.now = p.Now
	if forked {
		// Normalize the controller's cached scheduling state exactly as
		// the scratch run's switch does (same SwitchPolicy call), so the
		// forked continuation and the scratch oracle step identically.
		s.ctrl.SwitchPolicy(s.now, s.policy)
	}
	copy(s.frozen, p.Frozen)
	copy(s.results, p.Results)
	copy(s.targets, p.Targets)
	// Sampling cadence is an attachment of the restored run, not the
	// snapshotted one: keep the saved cursor only when the cadence
	// matches, otherwise restart on the next boundary. Either way the
	// schedule is unchanged — sampling is an observer.
	if s.sampleEvery > 0 {
		if p.SampleEvery == s.sampleEvery && p.NextSampleAt >= s.now {
			s.nextSampleAt = p.NextSampleAt
		} else {
			s.nextSampleAt = (s.now/s.sampleEvery + 1) * s.sampleEvery
		}
	}
	return s, nil
}

// checkTags verifies that every pending completion in the payload
// names a live consumer, so a restored run cannot strand a load or
// complete one that is not waiting: in direct mode each live DRAM read
// must carry the issue seq of a distinct in-flight load of its core, one
// read per load; in cache mode each live DRAM read must have its line's
// MSHR, and every MSHR waiter and cache-hit completion must name an
// in-flight load. It also rebuilds each direct port's outstanding count
// from the thread's live reads.
func (s *System) checkTags(p *checkpointPayload) error {
	inFlight := make([]map[int64]bool, len(s.cores))
	for i, cs := range p.Cores {
		inFlight[i] = make(map[int64]bool)
		for _, e := range cs.Window {
			if e.HasMem && e.Issued && !e.MemDone {
				inFlight[i][e.Seq] = true
			}
		}
	}
	live := make([]int, len(s.cores))
	for _, rs := range p.Controller.Requests {
		if rs.IsWrite {
			continue
		}
		t := rs.Thread
		live[t]++
		if s.hier != nil {
			if !hasMSHR(p.Hierarchies[t], rs.LineAddr) {
				return ckptErr("restore", "request %d: thread %d has no outstanding miss for line %#x", rs.ID, t, rs.LineAddr)
			}
		} else if !inFlight[t][rs.Tag] {
			return ckptErr("restore", "request %d: core %d has no in-flight load with issue seq %d, or another read claims it", rs.ID, t, rs.Tag)
		} else {
			delete(inFlight[t], rs.Tag)
		}
	}
	for i, hs := range p.Hierarchies {
		for _, ms := range hs.Outstanding {
			for _, seq := range ms.WaiterTags {
				if !inFlight[i][seq] {
					return ckptErr("restore", "MSHR waiter for line %#x: core %d has no in-flight load with issue seq %d", ms.LineAddr, i, seq)
				}
			}
		}
		for _, cs := range hs.Completions {
			if !inFlight[i][cs.Tag] {
				return ckptErr("restore", "pending completion: core %d has no in-flight load with issue seq %d", i, cs.Tag)
			}
		}
	}
	for t, port := range s.ports {
		if n := len(inFlight[t]); n > 0 {
			return ckptErr("restore", "core %d has %d in-flight loads with no live DRAM read", t, n)
		}
		port.outstanding = live[t]
	}
	return nil
}

func hasMSHR(hs cache.HierarchyState, lineAddr uint64) bool {
	for _, ms := range hs.Outstanding {
		if ms.LineAddr == lineAddr {
			return true
		}
	}
	return false
}

// CheckpointSink receives periodic snapshots from RunCheckpointed.
type CheckpointSink struct {
	// Every is the snapshot period in CPU cycles.
	Every int64
	// Write persists one snapshot. An error disables further
	// checkpointing for the run but does not abort it: losing crash
	// protection is strictly better than losing the run.
	Write func(cycle int64, data []byte) error
}

// RunCheckpointed is RunContext with periodic checkpointing: every
// sink.Every CPU cycles the run pauses at a fixed cycle boundary
// (clamping event jumps exactly like the watchdog does, so the
// schedule is bit-identical to an unsupervised run) and hands a
// snapshot to sink.Write. A run restored from any such snapshot and
// continued produces a Result reflect.DeepEqual to the uninterrupted
// run's.
func (s *System) RunCheckpointed(ctx context.Context, sink *CheckpointSink) (*Result, error) {
	if sink == nil || sink.Every <= 0 || sink.Write == nil {
		return nil, ckptErr("save", "RunCheckpointed needs a sink with a positive period and a Write func")
	}
	return s.runLoop(ctx, sink)
}

// CheckpointAt advances the system to exactly the given CPU cycle and
// returns a checkpoint taken there: the warm-up half of checkpoint-fork
// execution. Stepping mirrors RunContext's event-horizon jumps with the
// target cycle as one more fixed boundary, so the prefix schedule is
// bit-identical to a full run's — a fork restored from the returned
// snapshot continues exactly as that run would from the same cycle.
//
// The run may stop short of cycle: at the cycle budget, or when every
// thread froze first. The checkpoint is then taken at that earlier
// quiescent point, which still forks correctly — the scratch oracle's
// switch simply never fires, in both executions. Runs canceled via ctx
// return ErrCanceled/ErrDeadline and no checkpoint. Unlike RunContext,
// CheckpointAt has no watchdog: a livelocked warm-up burns its cycle
// budget instead of aborting early. Panics inside the stepped window
// surface as a *SimError, like RunContext's.
func (s *System) CheckpointAt(ctx context.Context, cycle int64) (data []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			data = nil
			err = &SimError{Cycle: s.now, Check: "panic", Err: panicErr(v), Stack: debug.Stack()}
		}
	}()
	if cycle < 0 {
		return nil, ckptErr("save", "negative checkpoint cycle %d", cycle)
	}
	maxCycles := s.cfg.CycleBudget(s.profiles)
	done := ctx.Done()
	for s.now < cycle && s.now < maxCycles && !s.allFrozen() {
		if done != nil {
			select {
			case <-done:
				return nil, ctxErr(ctx, s.now)
			default:
			}
		}
		next := s.step()
		if next <= s.now || s.allFrozen() {
			continue
		}
		if next > maxCycles {
			next = maxCycles
		}
		if next > cycle {
			next = cycle
		}
		for s.nextSampleAt < next {
			s.now = s.nextSampleAt
			s.takeSample(s.now)
		}
		s.now = next
	}
	return s.Checkpoint()
}
