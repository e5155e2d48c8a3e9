package service

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"

	"stfm/internal/experiments"
	"stfm/internal/sim"
	"stfm/internal/store"
)

// TestForkEndpoint drives POST /v1/jobs/{id}/fork over real HTTP: fork
// a parent under two target policies, and pin every child's result
// bit-identical to a cold in-process run of the equivalent fork-mode
// config (the scratch oracle of sim.TestForkEquivalence).
func TestForkEndpoint(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: 2, QueueSize: 8, SampleEvery: 500})
	ctx := context.Background()
	cfg := quickConfig(3)
	workload := []string{"mcf", "libquantum"}

	sub, err := client.Submit(ctx, JobRequest{Config: cfg, Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	parent := sub.Jobs[0].ID

	const atCycle = 40_000
	policies := []sim.PolicyKind{sim.PolicySTFM, sim.PolicyNFQ}
	forked, err := client.Fork(ctx, parent, ForkRequest{Policies: policies, AtCycle: atCycle})
	if err != nil {
		t.Fatal(err)
	}
	if len(forked.Jobs) != len(policies) {
		t.Fatalf("fork created %d jobs, want %d", len(forked.Jobs), len(policies))
	}
	for i, child := range forked.Jobs {
		if child.ForkOf != parent {
			t.Errorf("child %s forkOf = %q, want %q", child.ID, child.ForkOf, parent)
		}
		if child.Policy != policies[i] {
			t.Errorf("child %d policy = %s, want %s", i, child.Policy, policies[i])
		}
	}

	for i, child := range forked.Jobs {
		info, err := client.Wait(ctx, child.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusDone {
			t.Fatalf("child %s finished as %s (error %q)", child.ID, info.Status, info.Error)
		}
		rr, err := client.Result(ctx, child.ID)
		if err != nil {
			t.Fatal(err)
		}

		// The scratch oracle: a cold run of the child's exact config.
		oracle := cfg
		oracle.Policy = policies[i]
		oracle.ForkAtCycle = atCycle
		oracle.WarmupPolicy = cfg.Policy
		profs, err := experiments.Profiles(workload...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(oracle, profs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rr.Result, want) {
			t.Errorf("child %s (policy %s): forked result differs from cold fork-mode run", child.ID, policies[i])
		}
	}

	// Refork: every cell is content-addressed, so the same request is a
	// pure cache hit — done immediately, no queueing.
	again, err := client.Fork(ctx, parent, ForkRequest{Policies: policies, AtCycle: atCycle})
	if err != nil {
		t.Fatal(err)
	}
	for _, child := range again.Jobs {
		if child.Status != StatusDone || !child.Cached {
			t.Errorf("reforked child %s: status %s cached %v, want immediate cache hit", child.ID, child.Status, child.Cached)
		}
	}
}

// TestForkEndpointValidation pins the endpoint's error taxonomy: 404
// for an unknown parent, 400 for empty policies, a non-positive cycle,
// an unknown target policy, and forking a fork child.
func TestForkEndpointValidation(t *testing.T) {
	_, client := newTestServer(t, Options{Workers: 1, QueueSize: 8})
	ctx := context.Background()

	wantStatus := func(err error, code int, label string) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != code {
			t.Errorf("%s: got %v, want HTTP %d", label, err, code)
		}
	}

	_, err := client.Fork(ctx, "nope", ForkRequest{Policies: []sim.PolicyKind{sim.PolicySTFM}, AtCycle: 1000})
	wantStatus(err, http.StatusNotFound, "unknown parent")

	sub, err := client.Submit(ctx, JobRequest{Config: quickConfig(4), Workload: []string{"mcf", "astar"}})
	if err != nil {
		t.Fatal(err)
	}
	parent := sub.Jobs[0].ID

	_, err = client.Fork(ctx, parent, ForkRequest{AtCycle: 1000})
	wantStatus(err, http.StatusBadRequest, "no policies")
	_, err = client.Fork(ctx, parent, ForkRequest{Policies: []sim.PolicyKind{sim.PolicySTFM}})
	wantStatus(err, http.StatusBadRequest, "zero atCycle")
	_, err = client.Fork(ctx, parent, ForkRequest{Policies: []sim.PolicyKind{"bogus"}, AtCycle: 1000})
	wantStatus(err, http.StatusBadRequest, "unknown policy")

	forked, err := client.Fork(ctx, parent, ForkRequest{Policies: []sim.PolicyKind{sim.PolicySTFM}, AtCycle: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Fork(ctx, forked.Jobs[0].ID, ForkRequest{Policies: []sim.PolicyKind{sim.PolicyNFQ}, AtCycle: 1000})
	wantStatus(err, http.StatusBadRequest, "fork of a fork child")
}

// TestServerBaselineStore pins the shared alone-baseline store:
// completed alone-shaped jobs land in it, matching resubmissions are
// served from it across a server restart (disk spill), its counters
// surface in /v1/stats, and an experiments.Runner pointed at the same
// directory reuses the server's alone runs.
func TestServerBaselineStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	alone := sim.DefaultConfig(sim.PolicyFRFCFS, 1)
	alone.InstrTarget = 10_000
	alone.Seed = 1

	srv, client := newTestServer(t, Options{Workers: 1, QueueSize: 8, BaselineDir: dir})
	sub, err := client.Submit(ctx, JobRequest{Config: alone, Workload: []string{"mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := client.Wait(ctx, sub.Jobs[0].ID, 5*time.Millisecond)
	if err != nil || info.Status != StatusDone {
		t.Fatalf("alone job: %v / %+v", err, info)
	}
	rr, err := client.Result(ctx, sub.Jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Baseline == nil || st.Baseline.Entries != 1 {
		t.Fatalf("stats baseline = %+v, want 1 entry", st.Baseline)
	}

	// A second server on the same directory — memory cold, result cache
	// cold — must serve the resubmission from the baseline spill.
	_, client2 := newTestServer(t, Options{Workers: 1, QueueSize: 8, BaselineDir: dir})
	resub, err := client2.Submit(ctx, JobRequest{Config: alone, Workload: []string{"mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	if resub.Jobs[0].Status != StatusDone || !resub.Jobs[0].Cached {
		t.Fatalf("resubmission = %+v, want immediate baseline hit", resub.Jobs[0])
	}
	rr2, err := client2.Result(ctx, resub.Jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr2.Result, rr.Result) {
		t.Error("baseline-served result differs from the computed one")
	}

	// The batch side of the contract: a Runner on the same directory
	// serves Alone() from the server's spill without computing.
	baselines, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(experiments.Options{InstrTarget: 10_000, Seed: 1, Baseline: baselines})
	profs, err := experiments.Profiles("mcf")
	if err != nil {
		t.Fatal(err)
	}
	th, err := r.Alone(profs[0], alone.Channels)
	if err != nil {
		t.Fatal(err)
	}
	if bst := r.Baseline().Stats(); bst.Hits != 1 || bst.Misses != 0 {
		t.Errorf("runner stats = %+v, want a pure hit off the server's spill", bst)
	}
	if !reflect.DeepEqual(th, rr.Result.Threads[0]) {
		t.Error("runner's baseline differs from the server's result")
	}
}
