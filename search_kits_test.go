package mcmpart

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// Random and annealing plans on the planner's training kits (training.go):
// a graph's search plans run on environments the graph's earlier plans —
// RL, random or annealing — handed back, solver tables and annealing matrix
// sized, in the graph's one entry; a kit an RL plan ran on keeps its
// trainer through them.

// TestWarmSearchPlansMatchColdPlans: random and annealing plans on the cost
// model and the simulator, seeds 1-4, on a corpus graph and BERT, each
// planned cold (a new planner) and warm on one planner that planned every
// earlier case and an RL plan of the graph before each seed's pair — so
// every warm plan but each graph's first runs on the kit the plan before it
// handed back, whichever method that was. Every Result must be float-bit
// identical (under -short and -race: the corpus graph, seed 1), and each
// graph keeps one entry with one kit, whose environment and trainer every
// plan of the graph shares. Mutations caught: a search kit kept in an entry
// of its own, a search plan that drops the kit's trainer, and an
// environment that keeps the previous plan's evaluator.
func TestWarmSearchPlansMatchColdPlans(t *testing.T) {
	seeds, graphs := []int64{1, 2, 3, 4}, []*Graph{CorpusGraphs(1)[40], BERT()}
	if testing.Short() || raceEnabled {
		seeds, graphs = seeds[:1], graphs[:1]
	}
	warm, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range graphs {
		var shared kit
		// sameKit fails unless g's entry holds one idle kit, the one every
		// plan of g before ran on.
		sameKit := func(what string) {
			t.Helper()
			idle := idleTrainingKits(warm, g)
			if len(idle) != 1 || idle[0].trainer == nil || (shared.env != nil && (idle[0].env != shared.env || idle[0].trainer != shared.trainer)) {
				t.Fatalf("%s %s: the plan did not hand back the kit the plans before it ran on", g.Name(), what)
			}
			shared = idle[0]
		}
		for sim := range 2 {
			for _, seed := range seeds {
				if _, err := warm.Plan(context.Background(), g, PlanOptions{Method: MethodRL, SampleBudget: 8, Seed: seed}); err != nil {
					t.Fatal(err)
				}
				sameKit("RL")
				for _, m := range []Method{MethodRandom, MethodSA} {
					opts := PlanOptions{Method: m, SampleBudget: 24, Seed: seed, UseSimulator: sim == 1}
					want := coldRLPlan(t, g, opts)
					got, err := warm.Plan(context.Background(), g, opts)
					if err != nil {
						t.Fatal(err)
					}
					if resultBits(got) != want {
						t.Errorf("%s %s simulator=%t seed %d: the warm plan differs from the cold one", g.Name(), m, sim == 1, seed)
					}
					sameKit(string(m))
				}
			}
		}
	}
	checkTrainingWeights(t, warm.training)
	if entries, _ := warm.training.snapshot(); entries != len(graphs) {
		t.Errorf("the training store keeps %d entries, want one for each of %d graphs", entries, len(graphs))
	}
	if built := warm.rlPlans[kitNew].Load(); built != uint64(len(graphs)) {
		t.Errorf("%d RL plans built a trainer, want each graph's first", built)
	}
}

// TestConcurrentSAPlansTradeKits: annealing plans of one graph on the
// simulator, run at once on graphs of their own, take and hand back its
// kits concurrently, and each plans what the serial cold plan of its
// seed does. Every plan checks at every sample that the idle kits are
// distinct; under -race (CI) two plans annealing in one environment's
// matrices, or scoring into one simulator run's memory, fail the run.
func TestConcurrentSAPlansTradeKits(t *testing.T) {
	g := CorpusGraphs(1)[40]
	warm, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 4
	opts := func(seed int) PlanOptions {
		return PlanOptions{Method: MethodSA, SampleBudget: 16, Seed: int64(seed), UseSimulator: true}
	}
	want := make(map[int]string)
	for seed := 1; seed <= seeds; seed++ {
		want[seed] = coldRLPlan(t, g, opts(seed))
	}
	progress := func(ProgressEvent) { checkIdleTrainingKitsDistinct(t, warm.training) }
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for seed := 1; seed <= seeds; seed++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := opts(seed)
				o.Progress = progress
				res, err := warm.Plan(context.Background(), g.Clone(), o)
				if err != nil {
					t.Error(err)
					return
				}
				if resultBits(res) != want[seed] {
					t.Errorf("a concurrent annealing plan, seed %d, differs from its cold plan", seed)
				}
			}()
		}
		wg.Wait()
	}
	checkIdleTrainingKitsDistinct(t, warm.training)
	checkTrainingWeights(t, warm.training)
	if idle := idleTrainingKits(warm, g); len(idle) == 0 || len(idle) > seeds {
		t.Errorf("after concurrent annealing plans the graph keeps %d kits, want 1 to %d", len(idle), seeds)
	}
}

// TestConcurrentFirstPlansShareOneEntry: four annealing plans of a graph
// the planner has not planned, started at once on graphs of their own, each
// build a kit — each waits at its first sample until all four have taken
// one — and however many of them built an entry for the graph, the store
// keeps one, holding all four kits, and each plans what the cold plan of its
// seed does. Eight rounds, each on a new planner (two under -short and
// -race). Mutation caught: a takeKit that puts every entry it builds, so
// that the last one put replaces the others and the kits handed back to
// them are dropped.
func TestConcurrentFirstPlansShareOneEntry(t *testing.T) {
	g := CorpusGraphs(1)[40]
	const plans = 4
	rounds := 8
	if testing.Short() || raceEnabled {
		rounds = 2
	}
	opts := func(seed int) PlanOptions {
		return PlanOptions{Method: MethodSA, SampleBudget: 16, Seed: int64(seed), UseSimulator: true}
	}
	want := make(map[int]string)
	for seed := 1; seed <= plans; seed++ {
		want[seed] = coldRLPlan(t, g, opts(seed))
	}
	for round := 0; round < rounds; round++ {
		pl, err := NewPlanner(Edge36())
		if err != nil {
			t.Fatal(err)
		}
		var wg, arrived sync.WaitGroup
		arrived.Add(plans)
		for seed := 1; seed <= plans; seed++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var once sync.Once
				defer once.Do(arrived.Done) // a plan that failed before its first sample
				o := opts(seed)
				o.Progress = func(ProgressEvent) { once.Do(func() { arrived.Done(); arrived.Wait() }) }
				res, err := pl.Plan(context.Background(), g.Clone(), o)
				if err != nil {
					t.Error(err)
					return
				}
				if resultBits(res) != want[seed] {
					t.Errorf("round %d: a concurrent first annealing plan, seed %d, differs from its cold plan", round, seed)
				}
			}()
		}
		wg.Wait()
		if entries, _ := pl.training.snapshot(); entries != 1 {
			t.Errorf("round %d: concurrent first plans of one graph leave %d entries, want 1", round, entries)
		}
		if idle := idleTrainingKits(pl, g); len(idle) != plans {
			t.Errorf("round %d: the graph's entry holds %d idle kits, want the %d its plans ran on", round, len(idle), plans)
		}
		checkTrainingWeights(t, pl.training)
	}
}

// TestResultsNeverAliasTheirKit: a Result is its caller's. For each method
// that plans on a kit — random, annealing and RL on a training kit,
// zero-shot and fine-tune on a deployment's — a graph's first plan keeps its
// Result, and a second plan of the graph, on the kit the first handed back,
// plans another partition; the first Result's partition must be byte for
// byte what it was, and still valid on the package. Mutation caught: a
// Result handed the environment's best partition, which the second plan
// overwrites.
func TestResultsNeverAliasTheirKit(t *testing.T) {
	pl, _ := deployedPlanner(t)
	g := CorpusGraphs(1)[40]
	for _, m := range []Method{MethodRandom, MethodSA, MethodRL, MethodZeroShot, MethodFineTune} {
		plan := func(seed int64) *Result {
			res, err := pl.Plan(context.Background(), g, PlanOptions{Method: m, SampleBudget: 16, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		first := plan(1)
		kept := slices.Clone(first.Partition)
		if second := plan(2); slices.Equal(second.Partition, kept) {
			t.Fatalf("%s: seeds 1 and 2 plan one partition, so the second plan cannot show an alias", m)
		}
		if !slices.Equal(first.Partition, kept) {
			t.Errorf("%s: a second plan on the kit rewrote the first plan's partition", m)
		}
		if err := first.Partition.ValidateOn(g, pl.pkg); err != nil {
			t.Errorf("%s: the first plan's partition no longer validates: %v", m, err)
		}
	}
}

// TestConcurrentFromScratchPlansTradeKits: RL, random and annealing plans
// of one graph, run at once on one planner with graphs of their own, take
// and hand back the graph's kits concurrently — an RL plan builds a trainer
// on a kit a search plan built, a search plan runs on a kit whose trainer it
// leaves alone — and each plans what the serial cold plan of its method and
// seed does. Every plan checks at every sample that the idle kits are
// distinct; under -race (CI) two plans in one environment or one trainer
// fail the run. Once the plans are done the graph has one entry, and the
// store counts exactly what it holds.
func TestConcurrentFromScratchPlansTradeKits(t *testing.T) {
	g := CorpusGraphs(1)[40]
	warm, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	methods := []Method{MethodRL, MethodRandom, MethodSA}
	const seeds = 2
	opts := func(m Method, seed int) PlanOptions {
		return PlanOptions{Method: m, SampleBudget: 16, Seed: int64(seed), UseSimulator: m == MethodSA}
	}
	want := make(map[[2]int]string)
	for mi, m := range methods {
		for seed := 1; seed <= seeds; seed++ {
			want[[2]int{mi, seed}] = coldRLPlan(t, g, opts(m, seed))
		}
	}
	progress := func(ProgressEvent) { checkIdleTrainingKitsDistinct(t, warm.training) }
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for mi, m := range methods {
			for seed := 1; seed <= seeds; seed++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					o := opts(m, seed)
					o.Progress = progress
					res, err := warm.Plan(context.Background(), g.Clone(), o)
					if err != nil {
						t.Error(err)
						return
					}
					if resultBits(res) != want[[2]int{mi, seed}] {
						t.Errorf("a concurrent %s plan, seed %d, differs from its cold plan", m, seed)
					}
				}()
			}
		}
		wg.Wait()
	}
	checkIdleTrainingKitsDistinct(t, warm.training)
	checkTrainingWeights(t, warm.training)
	if entries, _ := warm.training.snapshot(); entries != 1 {
		t.Errorf("after concurrent plans of one graph the store keeps %d entries, want 1", entries)
	}
	if idle := idleTrainingKits(warm, g); len(idle) == 0 || len(idle) > len(methods)*seeds {
		t.Errorf("after concurrent plans the graph keeps %d kits, want 1 to %d", len(idle), len(methods)*seeds)
	}
}

// TestPlannerNeverCanonicalizes: an RL, an annealing and a zero-shot plan
// through Planner.Plan each leave a fresh BERT (under -short and -race: a
// corpus graph) uncanonicalized, since every per-graph store is keyed by
// the graph's StructureDigest; only the Service, which keys its plan cache
// by fingerprint, canonicalizes.
func TestPlannerNeverCanonicalizes(t *testing.T) {
	fresh := BERT
	if testing.Short() || raceEnabled {
		fresh = func() *Graph { return CorpusGraphs(1)[40] }
	}
	pl, _ := deployedPlanner(t)
	for _, m := range []Method{MethodRL, MethodSA, MethodZeroShot} {
		g := fresh()
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: m, SampleBudget: 8}); err != nil {
			t.Fatal(err)
		}
		if g.Canonicalized() {
			t.Errorf("a %s plan canonicalized its graph", m)
		}
	}
}

// TestSearchKitBytesEstimate: what the store counts for an idle kit no RL
// plan ran on is what the kit keeps, within 1 %, once a random plan and then an
// annealing plan on the simulator have run on it: the segmenter's prefix
// sums, boundaries and the weight slot with its matrix and term memo, and
// the annealing matrix. The kit keeps the difference the heap makes
// when its entry lets it go.
func TestSearchKitBytesEstimate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector checks no estimate")
	}
	g := BERT()
	pl, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodRandom, MethodSA} {
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: m, SampleBudget: 16, UseSimulator: true}); err != nil {
			t.Fatal(err)
		}
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	e, _ := pl.training.get(g.StructureDigest())
	est := uint64(idleTrainingKits(pl, g)[0].bytes)
	runtime.GC() // the simulator's pooled run memory goes at the second collection
	with := live()
	e.take()
	kept := with - live()
	runtime.KeepAlive(e)
	if est < kept*99/100 || est > kept*101/100 {
		t.Errorf("a BERT kit no RL plan ran on estimates %d bytes, it keeps %d", est, kept)
	}
}

// TestRepeatSAPlanHeapBytes holds what a repeat graph's annealing plan on
// the simulator allocates through the Planner: BERT/edge36 at
// bert-search-sim's budget, one worker. plan(2) runs on the kit
// plan(1), the graph's first, built and plan(3) handed back — segmenter
// tables, annealing matrix and move scratch, sample and best buffers sized —
// and scores its samples in the simulator's pooled run memory, so it
// allocates the Result's copy of the best partition, the greedy baseline
// and the Result's trajectory: 43 168 bytes measured once every sample was
// drawn into the kit's buffers, against 1 349 680 while each sample
// allocated its partition and each improvement its clone, and 7.18 MB a
// plan while every search plan built its environment and every sample
// allocated its schedule.
func TestRepeatSAPlanHeapBytes(t *testing.T) {
	const ceiling = 100000
	if raceEnabled {
		t.Skip("the race detector checks no allocation")
	}
	pl, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	g := BERT()
	withWorkers(1, func() {
		plan := func(seed int64) {
			if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodSA, SampleBudget: 64, Seed: seed, UseSimulator: true}); err != nil {
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
			t.Errorf("a repeat graph's annealing plan allocates %d bytes, ceiling %d: does it build an environment, or a sample its schedule, again?", got, ceiling)
		}
	})
}

// BenchmarkPlanSASimWarmBERT times a repeat graph's annealing plan on the
// simulator at bert-search-sim's budget: BERT/edge36, 64 samples, seeds
// cycling over 1-3 on the graph's training kit.
func BenchmarkPlanSASimWarmBERT(b *testing.B) {
	pl, err := NewPlanner(Edge36())
	if err != nil {
		b.Fatal(err)
	}
	g := BERT()
	plan := func(seed int64) {
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodSA, SampleBudget: 64, Seed: seed, UseSimulator: true}); err != nil {
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
