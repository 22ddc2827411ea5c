package mcmpart_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"mcmpart"
	"mcmpart/internal/faultinject"
)

// gatedOptions returns plan options whose Progress blocks at the first
// sample until release is closed — the deterministic way to hold a plan
// "in flight" while the test arranges concurrent requests around it.
// started is closed once the plan is inside the planner.
func gatedOptions(started, release chan struct{}) mcmpart.PlanOptions {
	var once sync.Once
	return mcmpart.PlanOptions{
		Method:       mcmpart.MethodRandom,
		SampleBudget: 30,
		Seed:         11,
		Progress: func(mcmpart.ProgressEvent) {
			once.Do(func() { close(started) })
			<-release
		},
	}
}

// TestSingleFlightCoalescing pins the tentpole contract: N concurrent
// identical cold requests invoke the planner exactly once, every caller
// gets a bit-identical result, and the stats account for 1 execution and
// N-1 coalesced requests.
func TestSingleFlightCoalescing(t *testing.T) {
	const n = 16
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2})
	g := smallGraph(t)
	started := make(chan struct{})
	release := make(chan struct{})
	opts := gatedOptions(started, release)

	leader, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the leader is inside the planner; the flight is registered

	followerOpts := opts
	followerOpts.Progress = nil
	jobs := make([]*mcmpart.Job, 0, n-1)
	for i := 0; i < n-1; i++ {
		job, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: followerOpts})
		if err != nil {
			t.Fatal(err)
		}
		if !job.Status().Coalesced {
			t.Fatalf("follower %d not coalesced", i)
		}
		jobs = append(jobs, job)
	}
	close(release)

	want, err := leader.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		got, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
		if err := resultsBitIdentical(want, got); err != nil {
			t.Fatalf("follower %d diverged from leader: %v", i, err)
		}
	}

	st := svc.Stats()
	if st.PlansExecuted != 1 {
		t.Fatalf("PlansExecuted = %d, want 1 (the whole point of single-flight)", st.PlansExecuted)
	}
	if st.PlansCoalesced != n-1 {
		t.Fatalf("PlansCoalesced = %d, want %d", st.PlansCoalesced, n-1)
	}
	if st.JobsDone != n {
		t.Fatalf("JobsDone = %d, want %d", st.JobsDone, n)
	}

	// And the shared result is the same plan a lone request computes.
	control := newTestService(t, mcmpart.ServiceOptions{})
	res, err := control.Plan(context.Background(), g, followerOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsBitIdentical(want, res); err != nil {
		t.Fatalf("coalesced result differs from a lone plan: %v", err)
	}
}

// TestCoalescedFollowerDetaches pins follower cancellation: a coalesced
// request that gives up is finished cancelled without disturbing the
// leader or the other followers.
func TestCoalescedFollowerDetaches(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	g := smallGraph(t)
	started := make(chan struct{})
	release := make(chan struct{})

	leader, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: gatedOptions(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	plain := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 30, Seed: 11}
	quitter, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: plain})
	if err != nil {
		t.Fatal(err)
	}
	stayer, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: plain})
	if err != nil {
		t.Fatal(err)
	}

	quitter.Cancel()
	if _, err := quitter.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("detached follower error = %v, want context.Canceled", err)
	}

	close(release)
	want, err := leader.Wait(context.Background())
	if err != nil {
		t.Fatalf("leader must be untouched by a follower detaching: %v", err)
	}
	got, err := stayer.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsBitIdentical(want, got); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.PlansExecuted != 1 || st.JobsCancelled != 1 || st.JobsDone != 2 {
		t.Fatalf("stats %+v: want 1 executed, 1 cancelled, 2 done", st)
	}
}

// TestLeaderCancellationPromotesFollower pins the hand-off: cancelling the
// leader keeps its best-so-far result for the leader alone, and a waiting
// follower re-plans from scratch — same seed, so the same answer a lone
// request would have gotten.
func TestLeaderCancellationPromotesFollower(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	g := smallGraph(t)
	started := make(chan struct{})
	release := make(chan struct{})

	leader, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: gatedOptions(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	plain := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 30, Seed: 11}
	follower, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: plain})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Status().Coalesced {
		t.Fatal("second request did not coalesce")
	}

	leader.Cancel()
	close(release) // let the leader's plan observe the cancellation

	if _, err := leader.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	got, err := follower.Wait(context.Background())
	if err != nil {
		t.Fatalf("promoted follower must complete: %v", err)
	}

	control := newTestService(t, mcmpart.ServiceOptions{})
	want, err := control.Plan(context.Background(), g, plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsBitIdentical(want, got); err != nil {
		t.Fatalf("promoted follower's re-plan diverged: %v", err)
	}
	if st := svc.Stats(); st.PlansExecuted != 2 {
		t.Fatalf("PlansExecuted = %d, want 2 (leader's aborted run + follower's re-plan)", st.PlansExecuted)
	}
}

// TestShedLeavesNothingBehind pins admission's no-rollback shape: with the
// queue full, Submit returns ErrBusy having registered no job, burned no
// job ID, and left the queued gauge where it was — and the service still
// drains.
func TestShedLeavesNothingBehind(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1, QueueDepth: 1})
	g := smallGraph(t)
	ctx := context.Background()
	started, release := make(chan struct{}), make(chan struct{})
	if _, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: gatedOptions(started, release)}); err != nil {
		t.Fatal(err)
	}
	<-started // job-000001 pins the only worker
	distinct := func(seed int64) mcmpart.PlanRequest {
		return mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 5, Seed: seed}}
	}
	queued, err := svc.Submit(ctx, distinct(100)) // job-000002 fills the queue
	if err != nil {
		t.Fatal(err)
	}
	before := svc.Stats()

	if _, err := svc.Submit(ctx, distinct(200)); !errors.Is(err, mcmpart.ErrBusy) {
		t.Fatalf("submit past a full queue: err = %v, want ErrBusy", err)
	}
	after := svc.Stats()
	if after.JobsQueued != before.JobsQueued || after.JobsSubmitted != before.JobsSubmitted ||
		after.CacheMisses != before.CacheMisses || after.JobsShed != before.JobsShed+1 {
		t.Fatalf("shed moved more than the shed counter:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, ok := svc.Job("job-000003"); ok {
		t.Fatal("the shed request registered a job")
	}

	close(release)
	<-queued.Done()
	next, err := svc.Submit(ctx, distinct(300))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != "job-000003" {
		t.Fatalf("admission after a shed got %s, want job-000003 (the shed must not burn an ID)", next.ID())
	}
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		t.Fatalf("Drain after a shed: %v", err)
	}
}

// TestMaxRetainedJobs pins the retention bound: a burst of terminal jobs
// whose bytes pass the retired jobs' bound evicts the least recently
// finished ones (Service.Job false, HTTP 404), keeps the rest within the
// bound, and never evicts a live job. The burst is cache hits on one small
// graph, microseconds each, and every terminal job weighs the same.
func TestMaxRetainedJobs(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	srv := httptest.NewServer(mcmpart.NewHTTPHandler(svc))
	defer srv.Close()
	g := smallGraph(t)
	ctx := context.Background()
	greedy := mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{Method: mcmpart.MethodGreedy}}

	first, err := svc.Submit(ctx, greedy) // fills the cache; every later one is a hit
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()
	size := mcmpart.JobBytes(first)
	bound := int(mcmpart.RetiredJobBytes / size) // terminal jobs the bound holds
	ids := make([]string, 0, bound+64)
	ids = append(ids, first.ID())

	started, release := make(chan struct{}), make(chan struct{})
	live, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: gatedOptions(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < bound+62; i++ {
		job, err := svc.Submit(ctx, greedy)
		if err != nil {
			t.Fatal(err)
		}
		if !job.Status().State.Terminal() {
			t.Fatalf("burst job %s is not an already-terminal cache hit", job.ID())
		}
		if got := mcmpart.JobBytes(job); got != size {
			t.Fatalf("burst job %s weighs %d bytes, the first %d", job.ID(), got, size)
		}
		ids = append(ids, job.ID())
	}

	if _, ok := svc.Job(live.ID()); !ok {
		t.Fatal("the live job was evicted by a burst of terminal ones")
	}
	retained := 0
	for i, id := range ids {
		_, ok := svc.Job(id)
		if ok {
			retained++
		}
		// Least recently finished first: exactly the newest bound terminal
		// jobs are retained beside the live one.
		if want := i >= len(ids)-bound; ok != want {
			t.Fatalf("job %s (terminal #%d of %d): retained = %t, want %t", id, i, len(ids), ok, want)
		}
	}
	if st := svc.Stats(); retained != bound || st.JobBytes != int64(bound)*size {
		t.Fatalf("%d terminal jobs retained in %d bytes, want %d in %d", retained, st.JobBytes, bound, int64(bound)*size)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET evicted job: HTTP %d, want 404", resp.StatusCode)
	}

	close(release)
	if _, err := live.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Job(live.ID()); !ok {
		t.Fatal("the job that just finished is the newest terminal one and must still be addressable")
	}
}

// TestDiskCacheSurvivesRestart pins the persistent tier at the Service
// layer: a plan computed by one service is served bit-identically — and
// counted as a disk hit — by a fresh service over the same directory.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plans")
	g := smallGraph(t)
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 30, Seed: 5}

	first := newTestService(t, mcmpart.ServiceOptions{CacheDir: dir})
	want, err := first.Plan(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.DiskCacheWrites != 1 {
		t.Fatalf("DiskCacheWrites = %d, want 1", st.DiskCacheWrites)
	}
	first.Close() // flush, then "restart"

	second := newTestService(t, mcmpart.ServiceOptions{CacheDir: dir})
	job, err := second.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !job.Status().Cached {
		t.Fatal("restart plan not served from cache")
	}
	if err := resultsBitIdentical(want, got); err != nil {
		t.Fatalf("disk-tier result not bit-identical: %v", err)
	}
	st := second.Stats()
	if st.DiskCacheHits != 1 || st.PlansExecuted != 0 {
		t.Fatalf("stats %+v: want 1 disk hit, 0 plans executed", st)
	}
}

// TestPlanPanicContained pins panic containment: an injected evaluator
// panic fails that job with ErrPlanPanic and the service keeps planning.
func TestPlanPanicContained(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	g := smallGraph(t)
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 20, Seed: 3}

	faultinject.Enable(faultinject.NewSet(1, faultinject.Rule{
		Point: faultinject.PointPlanEvaluate,
		Fault: faultinject.Fault{Err: errors.New("poisoned request"), Panic: true},
		Every: 1,
	}))
	t.Cleanup(faultinject.Disable)
	if _, err := svc.Plan(context.Background(), g, opts); !errors.Is(err, mcmpart.ErrPlanPanic) {
		t.Fatalf("err = %v, want ErrPlanPanic", err)
	}
	faultinject.Disable()

	res, err := svc.Plan(context.Background(), g, opts)
	if err != nil {
		t.Fatalf("service did not survive the panic: %v", err)
	}
	if err := mcmpart.Validate(g, svc.Package(), res.Partition); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.JobsFailed != 1 || st.JobsDone != 1 {
		t.Fatalf("stats %+v: want 1 failed, 1 done", st)
	}
}

// TestDrainLetsInflightFinish pins the graceful half of the drain
// contract: admission stops at once, the admitted job runs to a normal
// completion, and Drain returns nil.
func TestDrainLetsInflightFinish(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	g := smallGraph(t)
	started := make(chan struct{})
	release := make(chan struct{})
	job, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: gatedOptions(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	svc.BeginDrain()
	if !svc.Stats().Draining {
		t.Fatal("Stats().Draining = false after BeginDrain")
	}
	if _, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{Method: mcmpart.MethodGreedy}}); !errors.Is(err, mcmpart.ErrServiceClosed) {
		t.Fatalf("submit during drain: err = %v, want ErrServiceClosed", err)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := job.Status(); st.State != mcmpart.JobDone {
		t.Fatalf("in-flight job state after drain = %s, want done", st.State)
	}
}

// TestDrainDeadlineCancelsBestSoFar pins the forced half: when the drain
// deadline expires, remaining jobs are cancelled and keep their
// best-so-far results, and Drain reports the deadline error.
func TestDrainDeadlineCancelsBestSoFar(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	g := smallGraph(t)
	// A budget far too large to finish: the plan checks its context at
	// every sample, so the drain deadline stops it promptly.
	job, err := svc.Submit(context.Background(), mcmpart.PlanRequest{
		Graph:   g,
		Options: mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 50_000_000, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	res, jerr := job.Result()
	if job.Status().State != mcmpart.JobCancelled || !errors.Is(jerr, context.Canceled) {
		t.Fatalf("job after forced drain: state=%s err=%v", job.Status().State, jerr)
	}
	if res == nil {
		t.Fatal("forced drain must keep the best-so-far result")
	}
	if err := mcmpart.Validate(g, svc.Package(), res.Partition); err != nil {
		t.Fatal(err)
	}
}

// TestCloseRacingSubmissions hammers Close against concurrent
// Submit/Plan/PlanBatch: every accepted job must reach a terminal state,
// every rejected call must see ErrServiceClosed (or ErrBusy), and no
// goroutines may leak.
func TestCloseRacingSubmissions(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2, QueueDepth: 4})
	g := smallGraph(t)
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 25, Seed: 6}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var jobs []*mcmpart.Job
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				job, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: opts})
				if err == nil {
					mu.Lock()
					jobs = append(jobs, job)
					mu.Unlock()
				} else if !errors.Is(err, mcmpart.ErrServiceClosed) && !errors.Is(err, mcmpart.ErrBusy) {
					t.Errorf("Submit: unexpected error %v", err)
				}
			case 1:
				if _, err := svc.Plan(context.Background(), g, opts); err != nil &&
					!errors.Is(err, mcmpart.ErrServiceClosed) && !errors.Is(err, mcmpart.ErrBusy) &&
					!errors.Is(err, context.Canceled) {
					t.Errorf("Plan: unexpected error %v", err)
				}
			default:
				if _, err := svc.PlanBatch(context.Background(), []mcmpart.PlanRequest{
					{Graph: g, Options: opts}, {Graph: g, Options: opts},
				}); err != nil &&
					!errors.Is(err, mcmpart.ErrServiceClosed) && !errors.Is(err, mcmpart.ErrBusy) &&
					!errors.Is(err, context.Canceled) {
					t.Errorf("PlanBatch: unexpected error %v", err)
				}
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let some submissions land first
	svc.Close()
	wg.Wait()

	if _, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: opts}); !errors.Is(err, mcmpart.ErrServiceClosed) {
		t.Fatalf("post-close Submit: err = %v, want ErrServiceClosed", err)
	}
	for _, job := range jobs {
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never reached a terminal state after Close", job.ID())
		}
		if st := job.Status(); !st.State.Terminal() {
			t.Fatalf("job %s state %s not terminal", job.ID(), st.State)
		}
	}

	// Leak check: goroutine count settles back to (about) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainThenCloseIdempotent pins that the shutdown paths compose: any
// order and repetition of BeginDrain/Drain/Close is safe.
func TestDrainThenCloseIdempotent(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{})
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.BeginDrain()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightPlansUnderThePolicyItsKeyNames pins the one-snapshot rule: a
// deployed-policy request is keyed, planned, answered and stored under the
// policy installed when it was admitted. Here a zero-shot request admitted
// under policy A waits behind a slow plan on the only worker while policy B
// is installed; it must still get A's plan, and a second service holding A
// must find that plan on disk under A's key.
func TestFlightPlansUnderThePolicyItsKeyNames(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// Two distinct policies for the package, as artifacts.
	paths := [2]string{filepath.Join(dir, "a.policy.json"), filepath.Join(dir, "b.policy.json")}
	for i, path := range paths {
		pl, err := mcmpart.NewPlanner(mcmpart.Dev4())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Pretrain(ctx, mcmpart.CorpusGraphs(1)[:4], mcmpart.PretrainOptions{
			TotalSamples: 48, Checkpoints: 2, ValidationGraphs: 1, ValidationSamples: 2, Seed: int64(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
		if err := pl.SavePolicy(path); err != nil {
			t.Fatal(err)
		}
	}
	holdingA := func() *mcmpart.Planner {
		pl, err := mcmpart.NewPlanner(mcmpart.Dev4())
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.LoadPolicy(paths[0]); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	g := smallGraph(t)
	zeroshot := mcmpart.PlanOptions{Method: mcmpart.MethodZeroShot, SampleBudget: 12, Seed: 5}
	want, err := holdingA().Plan(ctx, g, zeroshot)
	if err != nil {
		t.Fatal(err)
	}

	cacheDir := filepath.Join(dir, "plans")
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1, CacheDir: cacheDir})
	if err := svc.Planner().LoadPolicy(paths[0]); err != nil {
		t.Fatal(err)
	}
	fpA := svc.Planner().PolicyFingerprint()
	started, release := make(chan struct{}), make(chan struct{})
	slow, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: mcmpart.CorpusGraphs(1)[5], Options: gatedOptions(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	job, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: zeroshot}) // admitted under A
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Planner().LoadPolicy(paths[1]); err != nil {
		t.Fatal(err)
	}
	if fpB := svc.Planner().PolicyFingerprint(); fpB == fpA {
		t.Fatal("the two pre-training seeds produced the same policy; the test needs two")
	}
	close(release)
	if _, err := slow.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsBitIdentical(want, got); err != nil {
		t.Fatalf("a request admitted under policy A was not answered with A's plan: %v", err)
	}
	svc.Close()

	second := newTestService(t, mcmpart.ServiceOptions{Workers: 1, CacheDir: cacheDir})
	if err := second.Planner().LoadPolicy(paths[0]); err != nil {
		t.Fatal(err)
	}
	hit, err := second.Plan(ctx, g, zeroshot)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.DiskCacheHits != 1 || st.PlansExecuted != 0 {
		t.Fatalf("stats %+v: A's plan was not stored under A's key (want 1 disk hit, 0 plans executed)", st)
	}
	if err := resultsBitIdentical(want, hit); err != nil {
		t.Fatalf("the plan stored under A's key is not A's plan: %v", err)
	}
}
