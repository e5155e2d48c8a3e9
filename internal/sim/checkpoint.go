package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

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
// checkpoint: the job reruns from scratch. Version 3 added a core's
// pending pure-compute run (cpu.CoreState.Pure), which a version-2
// reader would drop; a version-2 checkpoint still restores, as a
// snapshot with no pending run, the only kind version 2 wrote.

const (
	checkpointMagic   = "STFMCKPT"
	checkpointVersion = 3
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
	if ver != checkpointVersion && ver != 2 {
		return nil, ckptErr("envelope", "unsupported version %d (supported: 2, %d)", ver, checkpointVersion)
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
	if opts != nil {
		cfg.Telemetry = opts.Telemetry
	}
	s, err := NewSystem(cfg, p.Profiles)
	if err != nil {
		return nil, &CheckpointError{Stage: "restore", Err: err}
	}
	// A checkpoint of a fork-mode run taken at or after its switch cycle
	// carries the target policy's registers: install the target before
	// its state is restored below, so the run does not switch again.
	if p.Now >= s.switchAt {
		s.switchToTarget()
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
	if p.Policy != nil {
		sp, ok := s.policy.(memctrl.StatefulPolicy)
		if !ok {
			return nil, ckptErr("restore", "payload carries %s policy state but the policy is stateless", cfg.Policy)
		}
		if err := sp.RestoreState(p.Policy); err != nil {
			return nil, &CheckpointError{Stage: "restore", Err: err}
		}
	}
	s.now = p.Now
	copy(s.frozen, p.Frozen)
	copy(s.results, p.Results)
	copy(s.targets, p.Targets)
	s.setCoreTargets()
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
