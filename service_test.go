package mcmpart_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmpart"
)

func newTestService(t *testing.T, opts mcmpart.ServiceOptions) *mcmpart.Service {
	t.Helper()
	svc, err := mcmpart.NewService(mcmpart.Dev4(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// resultsBitIdentical compares every field of two results, float64s by
// bits (ResultBits).
func resultsBitIdentical(a, b *mcmpart.Result) error {
	if ra, rb := mcmpart.ResultBits(a), mcmpart.ResultBits(b); ra != rb {
		return fmt.Errorf("results differ:\n%s\n%s", ra, rb)
	}
	return nil
}

// TestServiceCacheHitBitIdenticalToColdPlan pins the cache contract: the
// second identical request is a hit, bit-identical to the cold plan, and
// bit-identical to what a fresh service computes cold for the same seed.
func TestServiceCacheHitBitIdenticalToColdPlan(t *testing.T) {
	ctx := context.Background()
	g := smallGraph(t)
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 30, Seed: 7}

	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2})
	cold, err := svc.Plan(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := svc.Plan(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsBitIdentical(cold, warm); err != nil {
		t.Fatalf("cache hit differs from cold plan: %v", err)
	}
	st := svc.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats report %d hits / %d misses, want 1 / 1", st.CacheHits, st.CacheMisses)
	}

	// A different seed must not hit the first entry.
	other := opts
	other.Seed = 8
	if _, err := svc.Plan(ctx, g, other); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.CacheMisses != 2 {
		t.Fatalf("different seed should miss; stats: %+v", st)
	}

	// A second service must compute the same cold result the first cached.
	svc2 := newTestService(t, mcmpart.ServiceOptions{Workers: 2})
	cold2, err := svc2.Plan(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsBitIdentical(cold, cold2); err != nil {
		t.Fatalf("cold plans diverge across services: %v", err)
	}
}

// orderedChain builds an n-node chain whose node at chain position `role` is
// created creationOrder[i]-th — so every creation order yields the same
// model under different node IDs. ids[role] is the node at that position.
func orderedChain(creationOrder []int) (g *mcmpart.Graph, ids []int) {
	g = mcmpart.NewGraph("order")
	ids = make([]int, len(creationOrder))
	for _, role := range creationOrder {
		ids[role] = g.AddNode(mcmpart.Node{
			Name: "fc", Op: mcmpart.OpKind(4), FLOPs: 1e9 * float64(1+role%3),
			ParamBytes: 1 << 20, OutputBytes: 1 << 16,
		})
	}
	for i := 0; i+1 < len(ids); i++ {
		g.MustAddEdge(ids[i], ids[i+1], 1<<16)
	}
	return g, ids
}

// forwardAndBackwardChains returns one 8-node chain built front to back
// and the same chain built back to front, with their role → node ID maps.
func forwardAndBackwardChains(t *testing.T) (ga, gb *mcmpart.Graph, idsA, idsB []int) {
	t.Helper()
	const n = 8
	forward, backward := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		forward[i], backward[i] = i, n-1-i
	}
	ga, idsA = orderedChain(forward)
	gb, idsB = orderedChain(backward)
	if ga.Fingerprint() != gb.Fingerprint() {
		t.Fatal("insertion orders fingerprint differently")
	}
	return ga, gb, idsA, idsB
}

// sameChainPlan checks that b is a's plan in gb's node IDs: valid on gb,
// every chain position on the same chip, everything else bit-identical.
func sameChainPlan(t *testing.T, a, b *mcmpart.Result, gb *mcmpart.Graph, idsA, idsB []int) {
	t.Helper()
	if err := b.Partition.ValidateOn(gb, mcmpart.Dev4()); err != nil {
		t.Fatalf("plan handed to the reordered graph does not fit it: %v", err)
	}
	for role := range idsA {
		if a.Partition[idsA[role]] != b.Partition[idsB[role]] {
			t.Fatalf("chain position %d: chip %d on the first graph, %d on the reordered one",
				role, a.Partition[idsA[role]], b.Partition[idsB[role]])
		}
	}
	inAsOrder := *b
	inAsOrder.Partition = a.Partition
	if err := resultsBitIdentical(a, &inAsOrder); err != nil {
		t.Fatal(err)
	}
}

// TestServiceCacheKeyUsesCanonicalFingerprint: the same model built in a
// different node-insertion order hits the cache, and the hit is indexed by
// the node IDs of the graph that asked.
func TestServiceCacheKeyUsesCanonicalFingerprint(t *testing.T) {
	ctx := context.Background()
	ga, gb, idsA, idsB := forwardAndBackwardChains(t)
	svc := newTestService(t, mcmpart.ServiceOptions{})
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodGreedy}
	first, err := svc.Plan(ctx, ga, opts)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := svc.Plan(ctx, gb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.CacheHits != 1 {
		t.Fatalf("isomorphic graph should hit the cache; stats: %+v", st)
	}
	sameChainPlan(t, first, hit, gb, idsA, idsB)
	// The first graph still gets its own order back.
	again, err := svc.Plan(ctx, ga, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsBitIdentical(first, again); err != nil {
		t.Fatalf("hit for the original order changed: %v", err)
	}
}

// TestCoalescedFollowerGetsItsOwnNodeOrder: a follower whose graph is the
// leader's model in another node order shares the leader's plan and
// receives it indexed by its own node IDs.
func TestCoalescedFollowerGetsItsOwnNodeOrder(t *testing.T) {
	ctx := context.Background()
	ga, gb, idsA, idsB := forwardAndBackwardChains(t)
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	started, release := make(chan struct{}), make(chan struct{})
	opts := gatedOptions(started, release)
	leader, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: ga, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	opts.Progress = nil
	follower, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: gb, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Status().Coalesced {
		t.Fatal("reordered graph did not coalesce onto the in-flight plan")
	}
	close(release)
	want, err := leader.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameChainPlan(t, want, got, gb, idsA, idsB)
	if st := svc.Stats(); st.PlansExecuted != 1 {
		t.Fatalf("PlansExecuted = %d, want 1", st.PlansExecuted)
	}
}

// TestDiskHitGetsItsOwnNodeOrder: the disk tier stores canonical order too,
// so a restarted service serves the reordered graph a plan that fits it.
func TestDiskHitGetsItsOwnNodeOrder(t *testing.T) {
	ctx := context.Background()
	ga, gb, idsA, idsB := forwardAndBackwardChains(t)
	dir := filepath.Join(t.TempDir(), "plans")
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 20, Seed: 4}
	first := newTestService(t, mcmpart.ServiceOptions{CacheDir: dir})
	want, err := first.Plan(ctx, ga, opts)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := newTestService(t, mcmpart.ServiceOptions{CacheDir: dir})
	got, err := second.Plan(ctx, gb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.DiskCacheHits != 1 || st.PlansExecuted != 0 {
		t.Fatalf("stats %+v: want 1 disk hit, 0 plans executed", st)
	}
	sameChainPlan(t, want, got, gb, idsA, idsB)
}

// TestServiceConcurrentSubmit hammers one service from many goroutines over
// a shared pre-trained policy: every job completes, results for identical
// requests are identical, and the goroutine count settles back (no leaks).
// Run under -race in CI.
func TestServiceConcurrentSubmit(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		svc, err := mcmpart.NewService(mcmpart.Dev8(), mcmpart.ServiceOptions{Workers: 4, QueueDepth: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		ctx := context.Background()
		corpus := mcmpart.CorpusGraphs(1)
		if _, err := svc.Planner().Pretrain(ctx, corpus[:6], mcmpart.PretrainOptions{
			TotalSamples: 120, Checkpoints: 3, ValidationGraphs: 1, ValidationSamples: 4,
		}); err != nil {
			t.Fatal(err)
		}
		graphs := corpus[80:83]
		const goroutines = 8
		const perG = 6
		results := make([][]*mcmpart.Result, goroutines)
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					g := graphs[i%len(graphs)]
					job, err := svc.Submit(ctx, mcmpart.PlanRequest{
						Graph:   g,
						Options: mcmpart.PlanOptions{Method: mcmpart.MethodZeroShot, SampleBudget: 6, Seed: int64(1 + i%2)},
					})
					if err != nil {
						if errors.Is(err, mcmpart.ErrBusy) {
							continue
						}
						t.Error(err)
						return
					}
					res, err := job.Wait(ctx)
					if err != nil {
						t.Error(err)
						return
					}
					results[w] = append(results[w], res)
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// Identical requests (same graph index, same seed parity) must have
		// produced identical results across goroutines.
		for w := 1; w < goroutines; w++ {
			if len(results[w]) != len(results[0]) {
				continue // some submissions may have been shed under ErrBusy
			}
			for i := range results[w] {
				if err := resultsBitIdentical(results[0][i], results[w][i]); err != nil {
					t.Fatalf("goroutine %d request %d diverged: %v", w, i, err)
				}
			}
		}
		st := svc.Stats()
		// A duplicate request is deduplicated one of two ways depending on
		// timing: a cache hit (it arrived after the first finished) or a
		// coalesced flight (it arrived while the first was in flight).
		// Either way the planner must not have run once per request.
		if st.JobsDone == 0 || st.CacheHits+st.PlansCoalesced == 0 {
			t.Fatalf("expected completed jobs and deduplicated requests, stats: %+v", st)
		}
		if distinct := uint64(len(graphs) * 2); st.PlansExecuted > distinct {
			t.Fatalf("%d plans executed for %d distinct keys: %+v", st.PlansExecuted, distinct, st)
		}
		if st.JobsQueued != 0 || st.JobsRunning != 0 {
			t.Fatalf("queued/running not drained: %+v", st)
		}
	}()
	// Leak check: goroutines must settle back after Close.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after service close", before, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestJobIDsDistinctUnderHitBurst is for -race: goroutines submit one
// cached request at once, so every admission is a cache hit contending for
// the job sequence and the job table. Every job gets its own ID and is the
// job the table returns for it.
func TestJobIDsDistinctUnderHitBurst(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2})
	req := mcmpart.PlanRequest{Graph: smallGraph(t), Options: mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 3, Seed: 1}}
	if _, err := svc.Plan(context.Background(), req.Graph, req.Options); err != nil {
		t.Fatal(err)
	}
	const submitters, each = 8, 100
	jobs := make([][]*mcmpart.Job, submitters)
	var wg sync.WaitGroup
	for w := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				job, err := svc.Submit(context.Background(), req)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				jobs[w] = append(jobs[w], job)
			}
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, js := range jobs {
		for _, job := range js {
			if seen[job.ID()] {
				t.Fatalf("job ID %s handed out twice", job.ID())
			}
			seen[job.ID()] = true
			if got, ok := svc.Job(job.ID()); !ok || got != job {
				t.Fatalf("the job table does not return job %s for its ID", job.ID())
			}
		}
	}
}

// TestJobSnapshotsPolledWhilePlanning is for -race: one goroutine per job
// polls Status and Result from admission until the job is terminal, while a
// worker marks it running, records its progress and finishes it — a reader
// against every writer of the fields Job.mu guards. Every key is submitted
// twice at once, so followers and cache hits are polled too.
func TestJobSnapshotsPolledWhilePlanning(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2, QueueDepth: 64})
	g := smallGraph(t)
	var pollers sync.WaitGroup
	var jobs []*mcmpart.Job
	for seed := int64(1); seed <= 8; seed++ {
		for range 2 {
			job, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{
				Method: mcmpart.MethodRandom, SampleBudget: 40, Seed: seed,
			}})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
			pollers.Add(1)
			go func() {
				defer pollers.Done()
				for !job.Status().State.Terminal() {
					job.Result()
				}
			}()
		}
	}
	pollers.Wait()
	for _, job := range jobs {
		if st := job.Status(); st.State != mcmpart.JobDone || st.Error != "" {
			t.Fatalf("job %s ended %s (%q)", job.ID(), st.State, st.Error)
		}
		if res, err := job.Result(); res == nil || err != nil {
			t.Fatalf("job %s: result %v, error %v", job.ID(), res, err)
		}
	}
}

// TestServiceJobCancelKeepsBestSoFar: cancelling a running job keeps the
// best-so-far result, and the job reports the cancelled state.
func TestServiceJobCancelKeepsBestSoFar(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	var job *mcmpart.Job
	started := make(chan struct{})
	var once sync.Once
	j, err := svc.Submit(context.Background(), mcmpart.PlanRequest{
		Graph: smallGraph(t),
		Options: mcmpart.PlanOptions{
			Method: mcmpart.MethodRandom, SampleBudget: 1_000_000, Seed: 3,
			Progress: func(ev mcmpart.ProgressEvent) {
				if ev.Samples >= 10 {
					once.Do(func() { close(started) })
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	job = j
	<-started
	job.Cancel()
	res, err := job.Wait(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Partition == nil {
		t.Fatal("cancelled job must keep its best-so-far result")
	}
	if st := job.Status(); st.State != mcmpart.JobCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	if st := svc.Stats(); st.JobsCancelled != 1 {
		t.Fatalf("stats missed the cancellation: %+v", st)
	}
}

// TestServiceCountersLeadDone: the terminal counters already include a job
// at the instant its Done() fires (DESIGN.md §14.3). Before the terminal
// transition was split, Done() closed first and a woken waiter could read
// Stats() one job short.
func TestServiceCountersLeadDone(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	g := smallGraph(t)
	for i := 1; i <= 300; i++ {
		job, err := svc.Submit(context.Background(), mcmpart.PlanRequest{
			Graph: g,
			// A fresh seed per job keeps the plan cache out of the loop.
			Options: mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 1_000_000, Seed: int64(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		job.Cancel()
		<-job.Done()
		st := svc.Stats()
		if ended := st.JobsDone + st.JobsFailed + st.JobsCancelled; ended != uint64(i) {
			t.Fatalf("job %d is done but the counters hold %d ended jobs: %+v", i, ended, st)
		}
	}
}

func TestServicePlanBatch(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2})
	g := smallGraph(t)
	reqs := []mcmpart.PlanRequest{
		{Graph: g, Options: mcmpart.PlanOptions{Method: mcmpart.MethodGreedy}},
		{Graph: g, Options: mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 10, Seed: 2}},
		{Graph: g, Options: mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 10, Seed: 3}},
	}
	results, err := svc.PlanBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r == nil || r.Partition == nil {
			t.Fatalf("batch result %d is empty", i)
		}
	}
	// A bad request surfaces as the deterministic lowest-index error while
	// the rest still plan.
	reqs[1].Options.SampleBudget = -1
	results, err = svc.PlanBatch(context.Background(), reqs)
	if err == nil {
		t.Fatal("negative budget must fail the batch")
	}
	if results[0] == nil || results[1] != nil || results[2] == nil {
		t.Fatalf("batch must keep independent successes: %v", results)
	}
}

func TestServiceValidationAndAdmission(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{})
	ctx := context.Background()
	g := smallGraph(t)
	cases := []struct {
		name string
		req  mcmpart.PlanRequest
		want string
	}{
		{"nil graph", mcmpart.PlanRequest{Graph: nil}, "nil graph"},
		{"negative budget", mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{SampleBudget: -5}}, "negative"},
		{"negative seed", mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{Seed: -1}}, "negative"},
		{"unknown method", mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{Method: "telepathy"}}, "unknown method"},
		{"policy-less zeroshot", mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{Method: mcmpart.MethodZeroShot}}, "pre-trained policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := svc.Submit(ctx, tc.req); err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	svc.Close()
	if _, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g}); !errors.Is(err, mcmpart.ErrServiceClosed) {
		t.Fatalf("want ErrServiceClosed after Close, got %v", err)
	}
}

func TestServiceOptionValidation(t *testing.T) {
	for _, opts := range []mcmpart.ServiceOptions{
		{Workers: -1}, {QueueDepth: -1},
	} {
		if _, err := mcmpart.NewService(mcmpart.Dev4(), opts); err == nil {
			t.Fatalf("ServiceOptions %+v must be rejected", opts)
		}
	}
	if _, err := mcmpart.NewService(nil, mcmpart.ServiceOptions{}); err == nil {
		t.Fatal("nil package must be rejected")
	}
}

func TestPlanOptionsValidate(t *testing.T) {
	if err := (mcmpart.PlanOptions{}).Validate(); err != nil {
		t.Fatalf("zero options must be valid (defaults): %v", err)
	}
	bad := []mcmpart.PlanOptions{
		{SampleBudget: -1}, {Seed: -2}, {Method: "nope"},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("PlanOptions %+v must be invalid", o)
		}
	}
	if err := (mcmpart.PretrainOptions{}).Validate(); err != nil {
		t.Fatalf("zero pretrain options must be valid: %v", err)
	}
	// A small explicit budget with default checkpoints caps the default
	// instead of erroring over a value the caller never set.
	if err := (mcmpart.PretrainOptions{TotalSamples: 5}).Validate(); err != nil {
		t.Fatalf("small TotalSamples with default Checkpoints must be valid: %v", err)
	}
	badPre := []mcmpart.PretrainOptions{
		{TotalSamples: -1}, {Checkpoints: -1}, {ValidationSamples: -1},
		{ValidationGraphs: -1}, {Seed: -1},
		{TotalSamples: 10, Checkpoints: 20},
	}
	for _, o := range badPre {
		if err := o.Validate(); err == nil {
			t.Fatalf("PretrainOptions %+v must be invalid", o)
		}
	}
}
