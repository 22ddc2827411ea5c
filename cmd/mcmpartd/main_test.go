package main

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mcmpart"
)

// daemonHandle is an in-process daemon under test control: its client,
// plus explicit signal/wait hooks so tests can deliver the SIGTERM
// equivalent mid-flight and observe the drain.
type daemonHandle struct {
	Client *mcmpart.Client
	Addr   string // host:port the daemon listens on
	cancel context.CancelFunc
	done   chan int
}

// Signal delivers the SIGTERM equivalent (cancels run's context) without
// waiting — the daemon keeps serving while it drains.
func (d *daemonHandle) Signal() { d.cancel() }

// Wait blocks until the daemon exits and returns its exit code.
func (d *daemonHandle) Wait(t *testing.T) int {
	t.Helper()
	select {
	case code := <-d.done:
		d.done <- code // keep rereadable for the cleanup path
		return code
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not shut down")
		return -1
	}
}

// bootDaemonHandle starts the daemon in-process via run(). Shutdown
// happens through context cancellation, exactly like SIGTERM in
// production.
func bootDaemonHandle(t *testing.T, args []string) *daemonHandle {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() { done <- run(ctx, args, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("daemon exited with code %d before becoming ready", code)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	d := &daemonHandle{Client: mcmpart.NewClient("http://"+addr, nil, mcmpart.ClientOptions{}), Addr: addr, cancel: cancel, done: done}
	t.Cleanup(func() {
		d.Signal()
		if code := d.Wait(t); code != 0 {
			t.Errorf("daemon exited with code %d", code)
		}
	})
	return d
}

// bootDaemon is the simple form for tests that only shut down at cleanup.
func bootDaemon(t *testing.T, args []string) *mcmpart.Client {
	t.Helper()
	return bootDaemonHandle(t, args).Client
}

// TestDaemonEndToEndCachedZeroShot is the PR's acceptance test: boot
// mcmpartd in-process with a policy registry holding a pre-trained dev8
// policy, plan a held-out corpus MLP over HTTP twice with the zero-shot
// method, and assert the second response is a cache hit, bit-identical to
// the first, with /v1/stats reporting exactly 1 hit / 1 miss.
func TestDaemonEndToEndCachedZeroShot(t *testing.T) {
	// Pre-train a dev8 policy and drop it into the registry directory the
	// daemon will serve from — the "pretrain once, serve forever" flow.
	dir := t.TempDir()
	pl, err := mcmpart.NewPlanner(mcmpart.Dev8())
	if err != nil {
		t.Fatal(err)
	}
	corpus := mcmpart.CorpusGraphs(1)
	if _, err := pl.Pretrain(context.Background(), corpus[:6], mcmpart.PretrainOptions{
		TotalSamples: 120, Checkpoints: 3, ValidationGraphs: 1, ValidationSamples: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := pl.SavePolicy(filepath.Join(dir, "dev8.policy.json")); err != nil {
		t.Fatal(err)
	}

	cl := bootDaemon(t, []string{"-addr", "127.0.0.1:0", "-mcm", "dev8", "-policy-dir", dir})
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	pols, err := cl.Policies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pols.PolicyInstalled || len(pols.Policies) == 0 {
		t.Fatalf("registry policy not installed at startup: %+v", pols)
	}

	held := corpus[84] // a held-out MLP the policy never trained on
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodZeroShot, SampleBudget: 10, Seed: 7}
	first, err := cl.Plan(ctx, held, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first plan cannot be a cache hit")
	}
	if first.Result == nil || len(first.Result.Partition) != held.NumNodes() {
		t.Fatalf("first plan returned no usable result: %+v", first)
	}
	second, err := cl.Plan(ctx, held, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical plan must be a cache hit")
	}
	if !reflect.DeepEqual(first.Result.Partition, second.Result.Partition) {
		t.Fatalf("cached partition differs: %v vs %v", first.Result.Partition, second.Result.Partition)
	}
	if math.Float64bits(first.Result.Throughput) != math.Float64bits(second.Result.Throughput) {
		t.Fatalf("cached throughput not bit-identical: %v vs %v", first.Result.Throughput, second.Result.Throughput)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Fatalf("stats report %d hits / %d misses, want 1 / 1", stats.CacheHits, stats.CacheMisses)
	}
	if stats.DeploymentReuses != 0 {
		t.Fatalf("stats report %d deployment reuses after one plan, want 0", stats.DeploymentReuses)
	}

	// Another seed misses the plan cache but plans from the graph's
	// deployment, which the first plan built under the same policy.
	opts.Seed = 8
	if third, err := cl.Plan(ctx, held, opts); err != nil || third.Cached {
		t.Fatalf("a new seed's plan: %+v, %v; want a fresh plan", third, err)
	}
	if stats, err = cl.Stats(ctx); err != nil || stats.DeploymentReuses != 1 || stats.DeploymentBytes <= 0 {
		t.Fatalf("stats %+v, %v: want 1 deployment reuse after a repeat graph's plan, and the deployment's bytes counted", stats, err)
	}
}

// TestDaemonSmoke boots a bare daemon (no policy) and drives the cheap
// from-scratch path: plan a dev8 MLP twice, second call cached.
func TestDaemonSmoke(t *testing.T) {
	cl := bootDaemon(t, []string{"-addr", "127.0.0.1:0", "-mcm", "dev8"})
	ctx := context.Background()
	g := mcmpart.CorpusGraphs(1)[84]
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 15, Seed: 3}
	first, err := cl.Plan(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Plan(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("cache flags wrong: first=%v second=%v", first.Cached, second.Cached)
	}
	if !reflect.DeepEqual(first.Result.Partition, second.Result.Partition) {
		t.Fatal("cached plan differs from cold plan")
	}
}
