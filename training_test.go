package mcmpart

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/parallel"
	"mcmpart/internal/rl"
)

// The planner's training kits (training.go): a graph's first RL plan builds
// the graph's context, environment, trainer, rollout workers and
// partitioner replicas and keeps them; a repeat graph's RL plan runs on
// what an earlier RL plan of a graph of its structure kept, and trains
// exactly what a cold plan does.

// withWorkers runs fn under a temporary process-default worker count.
func withWorkers(w int, fn func()) {
	old := parallel.Default()
	parallel.SetDefault(w)
	defer parallel.SetDefault(old)
	fn()
}

// coldRLPlan plans g on a new planner, with no training kit to take, and
// returns the plan's result bits.
func coldRLPlan(tb testing.TB, g *Graph, opts PlanOptions) string {
	tb.Helper()
	pl, err := NewPlanner(Edge36())
	if err != nil {
		tb.Fatal(err)
	}
	res, err := pl.Plan(context.Background(), g, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return resultBits(res)
}

// keptRLBytes is what the training store counts once g is planned on a new
// planner: g's context and one kit.
func keptRLBytes(tb testing.TB, g *Graph, opts PlanOptions) int64 {
	tb.Helper()
	pl, err := NewPlanner(Edge36())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := pl.Plan(context.Background(), g, opts); err != nil {
		tb.Fatal(err)
	}
	_, used := pl.training.snapshot()
	if len(idleTrainingKits(pl, g)) != 1 {
		tb.Fatal("a graph's RL plan left no kit in the training store")
	}
	return used
}

// idleTrainingKits returns the idle kits of g's entry in pl's store, nil
// when the store holds none for g.
func idleTrainingKits(pl *Planner, g *Graph) []kit {
	e, ok := pl.training.get(g.StructureDigest())
	if !ok {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]kit(nil), e.idle...)
}

// TestWarmRLPlansMatchColdPlans: RL plans on the cost model and the
// simulator, seeds 1-4, on BERT and a corpus graph, at one worker and then
// at eight, each planned cold (a new planner) and warm on one planner that
// planned every earlier case — so each graph's first warm plan builds the
// kit, and every later one runs on the kit the plan before it handed back,
// whose trainer grows seven rollout workers when the count goes up. Every Result must be float-bit identical (under
// -short and -race: the corpus graph, seed 1), and the planner counts each
// plan by what it ran on. Mutations caught: a kit whose trainer is not
// Restarted, or whose environment keeps the previous plan's evaluator.
func TestWarmRLPlansMatchColdPlans(t *testing.T) {
	seeds, graphs := []int64{1, 2, 3, 4}, []*Graph{BERT(), CorpusGraphs(1)[40]}
	if testing.Short() || raceEnabled {
		seeds, graphs = seeds[:1], graphs[1:]
	}
	warm, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[[3]int64]string)
	plans := 0
	for gi, g := range graphs {
		var trainer *rl.Trainer
		for _, workers := range []int{1, 8} {
			for sim := range 2 {
				for _, seed := range seeds {
					opts := PlanOptions{Method: MethodRL, SampleBudget: 16, Seed: seed, UseSimulator: sim == 1}
					key := [3]int64{int64(gi), int64(sim), seed}
					if _, ok := want[key]; !ok {
						want[key] = coldRLPlan(t, g, opts)
					}
					var got *Result
					withWorkers(workers, func() {
						if got, err = warm.Plan(context.Background(), g, opts); err != nil {
							t.Fatal(err)
						}
					})
					plans++
					idle := idleTrainingKits(warm, g)
					if len(idle) != 1 || (trainer != nil && idle[0].trainer != trainer) {
						t.Fatalf("%s %v: the warm plan did not hand back the kit the plan before it used", g.Name(), opts)
					}
					trainer = idle[0].trainer
					if resultBits(got) != want[key] {
						t.Errorf("%s simulator=%t seed %d at %d workers: the warm plan differs from the cold one", g.Name(), sim == 1, seed, workers)
					}
				}
			}
		}
	}
	n := uint64(len(graphs))
	if built, reused := warm.rlPlans[kitNew].Load(), warm.rlPlans[kitReused].Load(); built != n || reused != uint64(plans)-n {
		t.Errorf("the planner counts %d new-kit and %d reused-kit RL plans of %d, want %d, %d", built, reused, plans, n, uint64(plans)-n)
	}
}

// checkIdleTrainingKitsDistinct fails unless every idle kit in the store
// holds an environment, and a trainer if it has one, no other idle kit
// holds: a kit listed twice is handed to two plans at once.
func checkIdleTrainingKitsDistinct(t *testing.T, set *planCache[[32]byte, *trainingKits]) {
	t.Helper()
	envs, trainers := make(map[*rl.Env]bool), make(map[*rl.Trainer]bool)
	for _, e := range set.values() {
		e.mu.Lock()
		for _, k := range e.idle {
			if envs[k.env] || (k.trainer != nil && trainers[k.trainer]) {
				t.Errorf("an environment or a trainer is idle in two kits")
			}
			envs[k.env], trainers[k.trainer] = true, true
		}
		e.mu.Unlock()
	}
}

// checkTrainingWeights fails unless the store counts what its entries hold:
// each entry its context and its idle kits as they were weighed.
func checkTrainingWeights(t *testing.T, set *planCache[[32]byte, *trainingKits]) {
	t.Helper()
	var sum int64
	for _, e := range set.values() {
		e.mu.Lock()
		sum += e.baseBytes
		if e.baseBytes != e.base.Bytes() {
			t.Errorf("an entry weighs its context %d bytes, the context holds %d", e.baseBytes, e.base.Bytes())
		}
		for _, k := range e.idle {
			sum += k.bytes
		}
		e.mu.Unlock()
	}
	if _, used := set.snapshot(); used != sum || used > set.limit {
		t.Errorf("the training store counts %d bytes, its entries hold %d, bound %d", used, sum, set.limit)
	}
}

// TestConcurrentRLPlansTradeKits: RL plans of one graph, run at once, take
// and hand back its training kits concurrently, and each plans what the
// serial cold plan of its seed does. First one graph under the default
// bound; then three under a bound with room for one graph's context and
// kit, so that puts, evictions and dropped kits race with takes. No two
// in-flight plans hold one trainer or one environment: every plan checks,
// at every sample, that the idle kits are distinct, and under -race (CI)
// two plans writing one trainer's scratch fail the run. Every field an
// entry's mutex guards is read and written here on several goroutines;
// once the plans are done the store counts exactly what its entries hold.
func TestConcurrentRLPlansTradeKits(t *testing.T) {
	warm, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*Graph{CorpusGraphs(1)[40], CorpusGraphs(1)[41], CorpusGraphs(1)[42]}
	const seeds = 3
	want := make(map[[2]int]string)
	var limit int64 // room for any one graph's context and kit
	for gi, g := range graphs {
		for seed := 1; seed <= seeds; seed++ {
			want[[2]int{gi, seed}] = coldRLPlan(t, g, PlanOptions{Method: MethodRL, SampleBudget: 16, Seed: int64(seed)})
		}
		limit = max(limit, keptRLBytes(t, g, PlanOptions{Method: MethodRL, SampleBudget: 16, Seed: 1}))
	}
	progress := func(ProgressEvent) { checkIdleTrainingKitsDistinct(t, warm.training) }
	run := func(n int) {
		var wg sync.WaitGroup
		for round := 0; round < 2; round++ {
			for gi := 0; gi < n; gi++ {
				for seed := 1; seed <= seeds; seed++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						// A graph of its own, as a decoded request brings.
						res, err := warm.Plan(context.Background(), graphs[gi].Clone(), PlanOptions{Method: MethodRL, SampleBudget: 16, Seed: int64(seed), Progress: progress})
						if err != nil {
							t.Error(err)
							return
						}
						if resultBits(res) != want[[2]int{gi, seed}] {
							t.Errorf("a concurrent RL plan of graph %d, seed %d differs from its cold plan", gi, seed)
						}
					}()
				}
			}
			wg.Wait()
		}
	}
	run(1)
	checkIdleTrainingKitsDistinct(t, warm.training)
	checkTrainingWeights(t, warm.training)
	if kept := warm.training.values(); len(kept) != 1 || len(idleTrainingKits(warm, graphs[0])) == 0 {
		t.Fatalf("after concurrent RL plans of one graph the store keeps %d entries", len(kept))
	}
	warm.training = newKitStore[*rl.GraphContext](limit)
	run(len(graphs))
	checkIdleTrainingKitsDistinct(t, warm.training)
	checkTrainingWeights(t, warm.training)
	if warm.training.evictions.Load() == 0 {
		t.Fatal("three graphs' kits under a bound with room for one evicted nothing")
	}
}

// TestPanickedRLPlanReturnsNoKit: an RL plan that panics mid-sample hands
// back neither its environment nor its trainer, either of which it may
// have left half written, so the store counts only the graph's context;
// the next plan of the graph builds a new kit and plans the cold plan.
// Mutations caught: a deferred put, and a taken kit left counted.
func TestPanickedRLPlanReturnsNoKit(t *testing.T) {
	pl, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	g := CorpusGraphs(1)[40]
	opts := PlanOptions{Method: MethodRL, SampleBudget: 16, Seed: 1}
	if _, err := pl.Plan(context.Background(), g, opts); err != nil {
		t.Fatal(err)
	}
	lost := idleTrainingKits(pl, g)[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the plan did not panic")
			}
		}()
		panicking := opts
		panicking.Progress = func(ProgressEvent) { panic("mid-plan") }
		_, _ = pl.Plan(context.Background(), g, panicking)
	}()
	e, _ := pl.training.get(g.StructureDigest())
	if _, used := pl.training.snapshot(); len(idleTrainingKits(pl, g)) != 0 || used != e.baseBytes {
		t.Fatalf("after a panicked plan the store counts %d bytes, want the context's %d alone", used, e.baseBytes)
	}
	opts.Seed = 2
	got, err := pl.Plan(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if idle := idleTrainingKits(pl, g); len(idle) != 1 || idle[0].trainer == lost.trainer || idle[0].env == lost.env {
		t.Fatal("the next plan did not run on a new kit")
	}
	checkTrainingWeights(t, pl.training)
	if want := coldRLPlan(t, g, opts); resultBits(got) != want {
		t.Fatal("the plan after a panicked one differs from the cold plan")
	}
}

// TestRepeatRLPlanHeapBytes holds what a repeat graph's RL plan allocates
// through the Planner: BERT/edge36 at bert-rl's budget, one worker. plan(2)
// runs on the kit plan(1), the graph's first, built and plan(3) handed back
// — environment, trainer, policy and records sized, and the step buffers
// every (episode, step) draws into — so it allocates its transitions and
// outcomes, the Result and the greedy baseline: 186 000 bytes measured once
// samples were drawn into the kit's buffers, against 1 421 440 while every
// sample allocated its partition and raw draw, and 11 860 016 while every
// plan built its context, environment, policy and trainer and sized their
// scratch (19.7 MB at two workers, with a rollout clone and a partitioner
// replica per worker and batch).
func TestRepeatRLPlanHeapBytes(t *testing.T) {
	const ceiling = 300000
	if raceEnabled {
		t.Skip("two BERT RL plans; the race detector checks no allocation")
	}
	pl, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	g := BERT()
	withWorkers(1, func() {
		plan := func(seed int64) {
			if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodRL, SampleBudget: 32, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		plan(1) // the graph's memoized layout and digest, and its kit
		plan(3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan(2)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d bytes", got)
		if got > ceiling {
			t.Errorf("a repeat graph's RL plan allocates %d bytes, ceiling %d: does it size a trainer or build a kit again?", got, ceiling)
		}
	})
}

// TestRetainedTrainingHeapStaysInItsBound: what RL-from-scratch plans keep
// is bounded in bytes. Eight BERT variants, each its own fingerprint,
// planned RL twice through a Service (two seeds, two cache keys), each
// leave a context and a kit of ≈16 MB at two workers: more than the
// training store's bound holds. The store counts at most its bound, evicts,
// and the heap after a GC grows by at most that bound plus a slack of 6 MiB
// for what the other stores keep of sixteen requests and the last plan's
// garbage.
func TestRetainedTrainingHeapStaysInItsBound(t *testing.T) {
	const variants = 8
	const slack = 6 << 20
	if testing.Short() || raceEnabled {
		t.Skip("plans eight BERT-sized RL requests")
	}
	svc, err := NewService(Edge36(), ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	withWorkers(2, func() {
		for i := 1; i <= variants; i++ {
			g := variant(BERT(), func(nodes []graph.Node, _ []graph.Edge) { nodes[0].FLOPs += float64(i) })
			for seed := int64(1); seed <= 2; seed++ {
				if _, err := svc.Plan(context.Background(), g, PlanOptions{Method: MethodRL, SampleBudget: 16, Seed: seed}); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := svc.Stats()
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("retained heap %.1f MB; training store %.1f MB, %d evictions", float64(grown)/1e6, float64(st.TrainingBytes)/1e6, st.TrainingEvictions)
	if st.TrainingBytes > trainingBytes || st.TrainingEvictions == 0 {
		t.Errorf("the training store counts %d bytes after %d evictions, bound %d", st.TrainingBytes, st.TrainingEvictions, trainingBytes)
	}
	if st.RLPlansNewKit != variants || st.RLPlansReusedKit != variants {
		t.Errorf("the service counts %d new-kit and %d reused-kit RL plans, want %d, %d", st.RLPlansNewKit, st.RLPlansReusedKit, variants, variants)
	}
	if grown > trainingBytes+slack {
		t.Errorf("the heap grew by %d bytes over %d RL plans, bound %d", grown, variants, trainingBytes+slack)
	}
}

// BenchmarkPlanRLWarmBERT times what a repeat RL-from-scratch plan of a
// graph costs the planner: BERT on Edge36 at bert-rl's budget and plan
// seeds (1, 2, 3 in turn), on the training kit an earlier plan built.
// TestRepeatRLPlanHeapBytes holds its bytes.
func BenchmarkPlanRLWarmBERT(b *testing.B) {
	pl, err := NewPlanner(Edge36())
	if err != nil {
		b.Fatal(err)
	}
	g := BERT()
	plan := func(seed int64) {
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodRL, SampleBudget: 32, Seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
	plan(1) // the graph's kit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan(int64(i%3 + 1))
	}
}

// TestFirstRLPlanHeapBytes holds what a graph's first RL plan allocates:
// the plan, and the training kit it builds and keeps — a clone of the
// graph's nodes and edges sharing its adjacency and layout
// (Graph.CloneDerived), the context, the environment and the trainer.
// BERT/edge36 at bert-rl's budget, one worker: 12 020 288 bytes, 0.20 MB
// above the 11 823 552 of a first plan that ran cold on the graph and kept
// nothing. A clone that builds its own adjacency and layout again read
// 12 127 744, above the ceiling. What the plan keeps stays within the
// store's bound.
func TestFirstRLPlanHeapBytes(t *testing.T) {
	const ceiling = 12050000
	if raceEnabled {
		t.Skip("two BERT RL plans; the race detector checks no allocation")
	}
	pl, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	g := BERT()
	opts := PlanOptions{Method: MethodRL, SampleBudget: 32, Seed: 1}
	withWorkers(1, func() {
		if _, err := pl.Plan(context.Background(), g, opts); err != nil { // the graph's memoized layout and digest
			t.Fatal(err)
		}
		pl.training = newTrainingKits()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := pl.Plan(context.Background(), g, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("a graph's first RL plan allocated %d bytes", got)
		if got > ceiling {
			t.Errorf("a graph's first RL plan allocates %d bytes, ceiling %d", got, ceiling)
		}
	})
	if entries, used := pl.training.snapshot(); entries != 1 || used > trainingBytes || len(idleTrainingKits(pl, g)) != 1 {
		t.Errorf("a graph's first RL plan leaves %d entries, %d bytes in the training store, want its kit within %d", entries, used, trainingBytes)
	}
}

// TestTrainingStoreCountsRealEvictions: evictions count only what the
// store let go. A kit handed back to an entry the store evicted while the
// kit's plan ran re-weighs nothing: the entry stays out and what evicted it
// stays in. Mutation caught: a re-weigh that puts back an evicted entry.
func TestTrainingStoreCountsRealEvictions(t *testing.T) {
	pl, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	a := CorpusGraphs(1)[40]
	plan := func(g *Graph, seed int64, progress func(ProgressEvent)) {
		t.Helper()
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodRL, SampleBudget: 8, Seed: seed, Progress: progress}); err != nil {
			t.Fatal(err)
		}
	}
	// Room for one graph's context and kit; b is a's shape under another
	// digest, so its context and kit weigh what a's do.
	pl.training = newKitStore[*rl.GraphContext](keptRLBytes(t, a, PlanOptions{Method: MethodRL, SampleBudget: 8, Seed: 1}))
	b := variant(a, func(nodes []graph.Node, _ []graph.Edge) { nodes[0].FLOPs++ })
	plan(a, 1, nil)
	plan(a, 2, nil) // a's entry and kit fill the bound
	var ev uint64
	nested := false
	plan(a, 3, func(ProgressEvent) {
		if nested {
			return
		}
		nested = true
		plan(b, 1, nil)
		plan(b, 2, nil) // b's kit evicts a's entry while a's plan holds its kit
		if _, held := pl.training.get(a.StructureDigest()); held {
			t.Fatal("b's entry and kit did not evict a's entry")
		}
		ev = pl.training.evictions.Load()
	})
	if _, held := pl.training.get(a.StructureDigest()); held || len(idleTrainingKits(pl, b)) != 1 || pl.training.evictions.Load() != ev {
		t.Errorf("a kit handed back to an evicted entry put it back (held %t, %d evictions, want %d)", held, pl.training.evictions.Load(), ev)
	}
	checkTrainingWeights(t, pl.training)
}

// BenchmarkPlanRLFirstBERT times what a graph's first RL-from-scratch plan
// costs: a new planner and a new BERT graph per op, at bert-rl's budget;
// the plan builds the graph's training kit and keeps it.
// TestFirstRLPlanHeapBytes holds its bytes.
func BenchmarkPlanRLFirstBERT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pl, err := NewPlanner(Edge36())
		if err != nil {
			b.Fatal(err)
		}
		g := BERT()
		b.StartTimer()
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodRL, SampleBudget: 32, Seed: int64(i%3 + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
