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
// epochs (recomputed, schedule-neutral by construction), telemetry
// buffers (observers), and completion callbacks (closures; re-created
// by pairing restored controller/cache state back to window entries
// via issue sequence numbers).

const (
	checkpointMagic   = "STFMCKPT"
	checkpointVersion = 1
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
	buf := make([]byte, 0, ckptHeaderLen+len(payload)+sha256.Size)
	buf = append(buf, checkpointMagic...)
	buf = binary.BigEndian.AppendUint32(buf, checkpointVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return buf, nil
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
	// The override also clears the saved Config's ForkAtCycle and
	// WarmupPolicy: the fork happens here, not on some later cycle.
	Policy *PolicyKind
}

// Restore rebuilds a System from a Checkpoint blob. The returned
// system continues bit-identically to the run that took the snapshot.
// All failures — corrupt envelopes, truncated payloads, shape
// mismatches, unresolvable in-flight requests — surface as a
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
	// Hierarchies restore before the controller: the controller's
	// read-completion resolver asks each hierarchy for its fill
	// callback, which requires the outstanding-miss map to be in place.
	for i, h := range s.hier {
		core := s.cores[i]
		if err := h.RestoreState(p.Hierarchies[i], func(tag int64) (func(now int64), error) {
			return core.InFlightCallback(tag)
		}); err != nil {
			return nil, &CheckpointError{Stage: "restore", Err: err}
		}
	}
	resolve, err := s.completionResolver(&p.Controller)
	if err != nil {
		return nil, err
	}
	if err := s.ctrl.RestoreState(p.Controller, resolve); err != nil {
		return nil, &CheckpointError{Stage: "restore", Err: err}
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

// completionResolver builds the memctrl restore callback that re-links
// each live read request to its consumer. In cache mode the consumer
// is the owning hierarchy's fill path, keyed by line address. In
// direct mode it is the issuing core's window entry: per-thread
// request IDs are allocated in EnqueueRead order, which equals the
// core's load acceptance order, so zipping the thread's live reads
// (ascending ID) with the core's in-flight loads (ascending issue seq)
// reproduces the original pairing; the callback is re-wrapped with the
// direct port's MSHR bookkeeping exactly as directPort.Load does.
func (s *System) completionResolver(st *memctrl.ControllerState) (func(rs memctrl.RequestState) (func(now int64), error), error) {
	if s.hier != nil {
		return func(rs memctrl.RequestState) (func(now int64), error) {
			if rs.Thread < 0 || rs.Thread >= len(s.hier) {
				return nil, fmt.Errorf("thread %d out of range", rs.Thread)
			}
			return s.hier[rs.Thread].FillCallback(rs.LineAddr)
		}, nil
	}
	n := len(s.cores)
	live := st.LiveReadsByThread(n)
	seqByID := make(map[uint64]int64)
	for t, reads := range live {
		seqs := s.cores[t].InFlightSeqs()
		if len(seqs) != len(reads) {
			return nil, ckptErr("restore", "thread %d has %d live DRAM reads but %d in-flight loads", t, len(reads), len(seqs))
		}
		for i, rs := range reads {
			seqByID[rs.ID] = seqs[i]
		}
		s.ports[t].outstanding = len(reads)
	}
	return func(rs memctrl.RequestState) (func(now int64), error) {
		seq, ok := seqByID[rs.ID]
		if !ok {
			return nil, fmt.Errorf("request %d has no paired in-flight load", rs.ID)
		}
		done, err := s.cores[rs.Thread].InFlightCallback(seq)
		if err != nil {
			return nil, err
		}
		port := s.ports[rs.Thread]
		return func(at int64) {
			port.outstanding--
			done(at)
		}, nil
	}, nil
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
