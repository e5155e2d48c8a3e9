package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"stfm/internal/dram"
	"stfm/internal/experiments"
	"stfm/internal/sim"
)

// quickConfig is a 2-core run small enough for test turnaround but
// large enough to span many sampling intervals.
func quickConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(sim.PolicyFRFCFS, 2)
	cfg.InstrTarget = 10_000
	cfg.Seed = seed
	return cfg
}

// longConfig runs long enough that a test can reliably observe (and
// cancel) it mid-flight.
func longConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(sim.PolicyFRFCFS, 2)
	cfg.InstrTarget = 100_000_000
	cfg.Seed = seed
	return cfg
}

func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, NewClient(hs.URL, hs.Client())
}

// waitStatus polls until the job reaches want (fatal on a terminal
// status that is not want, or on timeout).
func waitStatus(t *testing.T, c *Client, id string, want JobStatus) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == want {
			return info
		}
		if info.Status.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, info.Status, info.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobInfo{}
}

// TestServerEndToEnd drives the full API surface over real HTTP:
// submit -> poll -> result (equal to a direct in-process run) ->
// resubmit (cache hit, no new run) -> stats.
func TestServerEndToEnd(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: 2, QueueSize: 8, SampleEvery: 500})
	ctx := context.Background()
	cfg := quickConfig(7)
	workload := []string{"mcf", "libquantum"}

	sub, err := client.Submit(ctx, JobRequest{Config: cfg, Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Jobs) != 1 {
		t.Fatalf("submit created %d jobs, want 1", len(sub.Jobs))
	}
	id := sub.Jobs[0].ID
	if sub.Jobs[0].Cached {
		t.Fatal("first submission reported as cached")
	}

	info, err := client.Wait(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusDone {
		t.Fatalf("job finished as %s (error %q), want done", info.Status, info.Error)
	}
	if info.Progress.Fraction != 1 {
		t.Errorf("done job progress fraction = %v, want 1", info.Progress.Fraction)
	}
	if info.StartedAt.IsZero() || info.FinishedAt.IsZero() {
		t.Error("done job missing StartedAt/FinishedAt")
	}

	rr, err := client.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Result == nil {
		t.Fatal("done job has no result")
	}

	// The served result must be exactly what an in-process run of the
	// same configuration produces — the service adds queueing and
	// transport, never simulation drift. (The server attaches a
	// telemetry collector; the equivalence tests guarantee sampled
	// runs are bit-identical to unsampled ones.)
	profs, err := experiments.Profiles(workload...)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.Result, direct) {
		t.Errorf("served result differs from direct sim.Run:\nserved %+v\ndirect %+v", rr.Result, direct)
	}

	// Resubmission: same fingerprint, answered from the cache as an
	// immediately-done job — no queue wait, no new sim.System.
	sub2, err := client.Submit(ctx, JobRequest{Config: cfg, Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	j2 := sub2.Jobs[0]
	if !j2.Cached || j2.Status != StatusDone {
		t.Fatalf("resubmission = %s cached=%v, want done from cache", j2.Status, j2.Cached)
	}
	if j2.Fingerprint != info.Fingerprint {
		t.Errorf("resubmission fingerprint %s != original %s", j2.Fingerprint, info.Fingerprint)
	}
	rr2, err := client.Result(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr2.Result, rr.Result) {
		t.Error("cached result differs from the original")
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits < 1 || st.Completed < 1 || st.Submitted < 2 {
		t.Errorf("stats = %+v, want >=1 cache hit, >=1 completed, >=2 submitted", st)
	}
}

// TestServerValidation: malformed submissions become structured 400s.
func TestServerValidation(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: 1, QueueSize: 2})
	ctx := context.Background()
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"no workload or matrix", JobRequest{Config: quickConfig(1)}},
		{"both workload and matrix", JobRequest{Config: quickConfig(1), Workload: []string{"mcf"}, Matrix: "fig5"}},
		{"unknown benchmark", JobRequest{Config: quickConfig(1), Workload: []string{"no-such-bench"}}},
		{"unknown matrix", JobRequest{Config: quickConfig(1), Matrix: "fig999"}},
		{"invalid config", JobRequest{Config: sim.Config{Policy: "bogus"}, Workload: []string{"mcf"}}},
		{"negative timeout", JobRequest{Config: quickConfig(1), Workload: []string{"mcf"}, TimeoutMS: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := client.Submit(ctx, tc.req)
			var ae *APIError
			if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
				t.Fatalf("Submit() err = %v, want 400 APIError", err)
			}
		})
	}

	// Unknown job IDs are 404 on every per-job route.
	if _, err := client.Job(ctx, "j999-feedbeef"); !is404(err) {
		t.Errorf("Job(unknown) = %v, want 404", err)
	}
	if _, err := client.Result(ctx, "j999-feedbeef"); !is404(err) {
		t.Errorf("Result(unknown) = %v, want 404", err)
	}
	if _, err := client.Cancel(ctx, "j999-feedbeef"); !is404(err) {
		t.Errorf("Cancel(unknown) = %v, want 404", err)
	}
}

func reqBody(t *testing.T, req JobRequest) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func asAPIError(err error, out **APIError) bool {
	ae, ok := err.(*APIError)
	if ok {
		*out = ae
	}
	return ok
}

func is404(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusNotFound
}

// TestServerBackpressure: with the worker busy and the queue full,
// further submissions are rejected with 429 and a Retry-After header —
// and accepted again once capacity frees up.
func TestServerBackpressure(t *testing.T) {
	srv, client := newTestServer(t, Options{Workers: 1, QueueSize: 1, SampleEvery: 500})
	ctx := context.Background()
	workload := []string{"mcf", "libquantum"}

	// Occupy the single worker...
	subA, err := client.Submit(ctx, JobRequest{Config: longConfig(11), Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, client, subA.Jobs[0].ID, StatusRunning)
	// ...fill the queue...
	subB, err := client.Submit(ctx, JobRequest{Config: longConfig(12), Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	// ...and the next submission must bounce, not buffer.
	_, err = client.Submit(ctx, JobRequest{Config: longConfig(13), Workload: workload})
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity Submit() err = %v, want 429 APIError", err)
	}
	// The raw response carries the explicit retry hint.
	resp, err := http.Post(client.base+"/v1/jobs", "application/json",
		reqBody(t, JobRequest{Config: longConfig(13), Workload: workload}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("raw over-capacity POST: status %d Retry-After %q, want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if srv.Stats().QueueDepth != 1 {
		t.Errorf("queue depth = %d, want 1", srv.Stats().QueueDepth)
	}

	// Cancel the queued job: capacity frees only when the worker
	// discards it, so cancel both and verify intake recovers.
	for _, id := range []string{subB.Jobs[0].ID, subA.Jobs[0].ID} {
		if _, err := client.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := client.Submit(ctx, JobRequest{Config: quickConfig(14), Workload: workload})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("intake never recovered after cancellations: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerCancelMidRun: cancelling a running job stops it promptly
// and reports canceled (410 on the result route), with the
// cancellation cause recorded.
func TestServerCancelMidRun(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: 1, QueueSize: 4, SampleEvery: 500})
	ctx := context.Background()

	sub, err := client.Submit(ctx, JobRequest{Config: longConfig(21), Workload: []string{"mcf", "libquantum"}})
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Jobs[0].ID
	waitStatus(t, client, id, StatusRunning)
	if _, err := client.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	info, err := client.Wait(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusCanceled {
		t.Fatalf("canceled job finished as %s, want canceled", info.Status)
	}
	_, err = client.Result(ctx, id)
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusGone {
		t.Fatalf("Result(canceled) err = %v, want 410 APIError", err)
	}
}

// TestServerJobTimeout: a per-job deadline fails the job with the
// deadline cause instead of letting it run forever.
func TestServerJobTimeout(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: 1, QueueSize: 4, SampleEvery: 500})
	ctx := context.Background()
	sub, err := client.Submit(ctx, JobRequest{
		Config:    longConfig(31),
		Workload:  []string{"mcf", "libquantum"},
		TimeoutMS: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := client.Wait(ctx, sub.Jobs[0].ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusFailed || info.Error == "" {
		t.Fatalf("timed-out job = %s (error %q), want failed with a deadline error", info.Status, info.Error)
	}
}

// TestServerMatrixSubmission: a matrix expands into one job per
// (mix, policy) cell, all-or-nothing against queue capacity.
func TestServerMatrixSubmission(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: 2, QueueSize: 32, SampleEvery: 500})
	ctx := context.Background()

	// fig5 is 25 mixes x 2 policies = 50 cells: more than a
	// 32-slot queue, so it must be rejected atomically...
	_, err := client.Submit(ctx, JobRequest{Config: quickConfig(41), Matrix: "fig5"})
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("oversized matrix Submit() err = %v, want 429", err)
	}
	jobs, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("rejected matrix left %d jobs behind, want 0", len(jobs))
	}

	// ...while the desktop matrix (1 mix x 5 policies) fits.
	sub, err := client.Submit(ctx, JobRequest{Config: quickConfig(42), Matrix: "desktop"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Matrix != "desktop" || len(sub.Jobs) != 5 {
		t.Fatalf("desktop matrix created %d jobs (matrix %q), want 5", len(sub.Jobs), sub.Matrix)
	}
	policies := make(map[sim.PolicyKind]bool)
	for _, j := range sub.Jobs {
		policies[j.Policy] = true
		if _, err := client.Wait(ctx, j.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if len(policies) != 5 {
		t.Errorf("matrix cells cover %d distinct policies, want 5", len(policies))
	}
}

// TestServerDrain: Drain completes queued work, then refuses new
// submissions with ErrDraining (503 over HTTP), and leaves no worker
// goroutines behind.
func TestServerDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := New(Options{Workers: 2, QueueSize: 8, SampleEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(51); seed < 54; seed++ {
		sub, err := srv.Submit(JobRequest{Config: quickConfig(seed), Workload: []string{"mcf", "libquantum"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.Jobs[0].ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain() = %v, want nil (queued jobs should finish)", err)
	}
	for _, id := range ids {
		info, ok := srv.Job(id)
		if !ok || info.Status != StatusDone {
			t.Errorf("after drain, job %s = %+v, want done", id, info)
		}
	}
	if _, err := srv.Submit(JobRequest{Config: quickConfig(60), Workload: []string{"mcf"}}); err != ErrDraining {
		t.Errorf("post-drain Submit() = %v, want ErrDraining", err)
	}

	// Worker goroutines must all have exited; allow the runtime a
	// moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines after drain: %d, want <= %d (leak?)", runtime.NumGoroutine(), before)
}

// TestServerDrainDeadline: when the drain deadline passes with a job
// still running, the job is aborted (canceled, partial result) and
// Drain still returns with every worker stopped.
func TestServerDrainDeadline(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueSize: 4, SampleEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Submit(JobRequest{Config: longConfig(71), Workload: []string{"mcf", "libquantum"}})
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Jobs[0].ID
	// Wait for it to start running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, _ := srv.Job(id)
		if info.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain() = %v, want context.DeadlineExceeded", err)
	}
	info, _ := srv.Job(id)
	if info.Status != StatusCanceled {
		t.Errorf("after forced drain, job = %s, want canceled", info.Status)
	}
}

// TestServerProtocolMatrix submits the same workload once per DRAM
// protocol pack: every preset must be accepted, run to completion
// through the real job pipeline, and content-address to its own cache
// entry (pairwise-distinct fingerprints — a protocol collision would
// silently serve DDR2 results for an HBM submission).
func TestServerProtocolMatrix(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: 2, QueueSize: 16, SampleEvery: 500})
	ctx := context.Background()
	workload := []string{"mcf", "libquantum"}

	seen := make(map[string]dram.Protocol)
	for _, proto := range dram.Protocols() {
		cfg := quickConfig(11)
		cfg.Protocol = proto
		sub, err := client.Submit(ctx, JobRequest{Config: cfg, Workload: workload})
		if err != nil {
			t.Fatalf("%s: submit: %v", proto, err)
		}
		info, err := client.Wait(ctx, sub.Jobs[0].ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: wait: %v", proto, err)
		}
		if info.Status != StatusDone {
			t.Fatalf("%s: job finished as %s (error %q), want done", proto, info.Status, info.Error)
		}
		if prev, dup := seen[info.Fingerprint]; dup {
			t.Errorf("protocols %s and %s share fingerprint %s", prev, proto, info.Fingerprint)
		}
		seen[info.Fingerprint] = proto
		rr, err := client.Result(ctx, info.ID)
		if err != nil {
			t.Fatalf("%s: result: %v", proto, err)
		}
		if rr.Result == nil || len(rr.Result.Threads) != len(workload) {
			t.Errorf("%s: served result malformed: %+v", proto, rr.Result)
		}
	}
}

// TestServerProtocolMatrixExpansion submits the named "protocols"
// matrix and checks the protocol plane multiplies the job grid: every
// (mix, policy, protocol) cell becomes its own job with its own
// fingerprint, atomically accepted.
func TestServerProtocolMatrixExpansion(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: runtime.GOMAXPROCS(0), QueueSize: 64, SampleEvery: 500})
	ctx := context.Background()

	m, err := experiments.MatrixByID("protocols")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(43)
	cfg.InstrTarget = 2_000
	sub, err := client.Submit(ctx, JobRequest{Config: cfg, Matrix: "protocols"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Jobs) != m.Cells() {
		t.Fatalf("protocols matrix created %d jobs, want %d cells", len(sub.Jobs), m.Cells())
	}
	fps := make(map[string]bool)
	for _, j := range sub.Jobs {
		fps[j.Fingerprint] = true
	}
	if len(fps) != m.Cells() {
		t.Errorf("protocols matrix jobs share fingerprints: %d distinct, want %d", len(fps), m.Cells())
	}
	for _, j := range sub.Jobs {
		info, err := client.Wait(ctx, j.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusDone {
			t.Fatalf("cell %s finished as %s (error %q), want done", j.ID, info.Status, info.Error)
		}
	}
}
