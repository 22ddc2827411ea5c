package mcmpart_test

import (
	"context"
	"testing"

	"mcmpart"
)

// heavyChain is an 8-node chain whose weights fill Dev4 half full, built in
// the given order: four nodes on one chip overflow its SRAM on the
// simulator, so a random search rejects some samples and the result carries
// FailCounts as well as a Partition and a History.
func heavyChain(creationOrder []int) *mcmpart.Graph {
	g := mcmpart.NewGraph("heavy")
	ids := make([]int, len(creationOrder))
	for _, role := range creationOrder {
		ids[role] = g.AddNode(mcmpart.Node{
			Name: "fc", Op: mcmpart.OpKind(4), FLOPs: 1e9 * float64(1+role%3),
			ParamBytes: 2 << 20, OutputBytes: 1 << 16,
		})
	}
	for i := 0; i+1 < len(ids); i++ {
		g.MustAddEdge(ids[i], ids[i+1], 1<<16)
	}
	return g
}

// snapshot deep-copies a result the test is about to overwrite.
func snapshot(r *mcmpart.Result) *mcmpart.Result {
	c := *r
	c.Partition = append(mcmpart.Partition(nil), r.Partition...)
	c.History = append([]float64(nil), r.History...)
	c.FailCounts = map[string]int{}
	for k, v := range r.FailCounts {
		c.FailCounts[k] = v
	}
	return &c
}

// scribble overwrites every element of a result a caller can reach.
func scribble(r *mcmpart.Result) {
	for i := range r.Partition {
		r.Partition[i] = -7
	}
	for i := range r.History {
		r.History[i] = -7
	}
	for k := range r.FailCounts {
		r.FailCounts[k] = -7
	}
	r.FailCounts["scribbled"] = 1
}

// TestResultIsolation pins the isolation contract by behaviour (DESIGN.md
// §8): whatever the Service keeps for a key — the memory entry, the disk
// entry, a flight's outcome, a job's retained result — is never what a
// caller holds. Every result a caller can obtain is overwritten element by
// element, and everything served afterwards must still be the cold plan.
func TestResultIsolation(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2, CacheDir: dir})
	forward, backward := []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{7, 6, 5, 4, 3, 2, 1, 0}
	g, reordered := heavyChain(forward), heavyChain(backward)
	plain := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 30, Seed: 11, UseSimulator: true}

	// Cold, held in flight so that a second request coalesces onto it.
	started, release := make(chan struct{}), make(chan struct{})
	gated := gatedOptions(started, release)
	gated.UseSimulator = true
	leader, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: gated})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-leader.Done():
		_, err := leader.Result()
		t.Fatalf("cold plan ended before its first sample: %v", err)
	}
	follower, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: plain})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Status().Coalesced {
		t.Fatal("second request did not coalesce")
	}
	close(release)
	first, err := leader.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.History) == 0 || len(first.FailCounts) == 0 {
		t.Fatalf("cold plan has History %v and FailCounts %v; the test needs both non-empty", first.History, first.FailCounts)
	}
	cold := snapshot(first)
	same := func(what string, got *mcmpart.Result) {
		t.Helper()
		if err := resultsBitIdentical(cold, got); err != nil {
			t.Fatalf("%s is no longer the cold plan: %v", what, err)
		}
	}

	// Job.Result twice on one job: the second call must not see the first.
	scribble(first)
	again, _ := leader.Result()
	same("the leader's second Result() after its first was overwritten", again)
	scribble(again)

	// The follower shares the flight's outcome with the leader.
	fres, err := follower.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	same("the coalesced follower's result after the leader's was overwritten", fres)
	scribble(fres)
	again, _ = leader.Result()
	same("the leader's result after the follower's was overwritten", again)

	// Memory hits, through Service.Plan: each is scribbled, the next must be clean.
	for i := 0; i < 2; i++ {
		hit, err := svc.Plan(ctx, g, plain)
		if err != nil {
			t.Fatal(err)
		}
		same("a memory hit after earlier results were overwritten", hit)
		scribble(hit)
	}
	if st := svc.Stats(); st.PlansExecuted != 1 || st.CacheHits != 2 {
		t.Fatalf("stats %+v: want 1 plan executed and 2 memory hits", st)
	}

	// The same model in another insertion order gets the plan in its own
	// node order: reversed here, because the chain was built back to front.
	rhit, err := svc.Plan(ctx, reordered, plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := rhit.Partition.ValidateOn(reordered, mcmpart.Dev4()); err != nil {
		t.Fatalf("hit for the reordered graph does not fit it: %v", err)
	}
	for v := range cold.Partition {
		if rhit.Partition[len(cold.Partition)-1-v] != cold.Partition[v] {
			t.Fatalf("reordered hit %v is not the cold plan %v read back to front", rhit.Partition, cold.Partition)
		}
	}
	scribble(rhit)
	hit, err := svc.Plan(ctx, g, plain)
	if err != nil {
		t.Fatal(err)
	}
	same("a memory hit after the reordered graph's hit was overwritten", hit)

	// The disk entry: a second Service on the same directory promotes it,
	// and what it promoted into memory must survive its caller too.
	svc.Close()
	second := newTestService(t, mcmpart.ServiceOptions{Workers: 1, CacheDir: dir})
	for i, what := range []string{"the disk-promoted hit", "the memory hit after the disk-promoted one was overwritten"} {
		hit, err := second.Plan(ctx, g, plain)
		if err != nil {
			t.Fatal(err)
		}
		same(what, hit)
		scribble(hit)
		if st := second.Stats(); st.PlansExecuted != 0 || st.DiskCacheHits != 1 || st.CacheHits != uint64(i) {
			t.Fatalf("stats %+v: want 0 plans executed, 1 disk hit, %d memory hits", st, i)
		}
	}
}
