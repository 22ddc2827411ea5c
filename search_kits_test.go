package mcmpart

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"mcmpart/internal/rl"
)

// The planner's search kits (training.go): a graph's random and annealing
// plans run on environments the graph's earlier search plans handed back —
// solver tables and annealing matrix sized — kept in the training store
// under searchKey, beside the graph's training kits.

// idleSearchKits returns the idle kits of g's search entry in pl's store,
// nil when the store holds none for g.
func idleSearchKits(pl *Planner, g *Graph) []kit { return idleKitsUnder(pl, searchKey(g)) }

// TestWarmSearchPlansMatchColdPlans: random and annealing plans on the cost
// model and the simulator, seeds 1-4, on a corpus graph and BERT, each
// planned cold (a new planner) and warm on one planner that planned every
// earlier case and an RL plan of the graph before each seed's pair — so
// every warm search plan but each graph's first runs on the environment the
// search plan before it handed back, whichever method that was. Every
// Result must be float-bit identical (under -short and -race: the corpus
// graph, seed 1), the graph keeps one search kit, and the RL plans keep
// running on the graph's one training kit. Mutations caught: a search kit
// kept under the graph's fingerprint (it replaces the training entry), and
// an environment that keeps the previous plan's evaluator.
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
		var env *rl.Env
		var trainer *rl.Trainer
		for sim := range 2 {
			for _, seed := range seeds {
				if _, err := warm.Plan(context.Background(), g, PlanOptions{Method: MethodRL, SampleBudget: 8, Seed: seed}); err != nil {
					t.Fatal(err)
				}
				idle := idleTrainingKits(warm, g)
				if len(idle) != 1 || (trainer != nil && idle[0].trainer != trainer) {
					t.Fatalf("%s: an RL plan between search plans did not run on the graph's training kit", g.Name())
				}
				trainer = idle[0].trainer
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
					idle := idleSearchKits(warm, g)
					if len(idle) != 1 || idle[0].trainer != nil || (env != nil && idle[0].env != env) {
						t.Fatalf("%s %s simulator=%t seed %d: the warm plan did not hand back the search kit the plan before it used", g.Name(), m, sim == 1, seed)
					}
					env = idle[0].env
				}
			}
		}
	}
	checkTrainingWeights(t, warm.training)
	if entries, _ := warm.training.snapshot(); entries != 2*len(graphs) {
		t.Errorf("the training store keeps %d entries, want a training and a search entry for each of %d graphs", entries, len(graphs))
	}
}

// TestConcurrentSAPlansTradeKits: annealing plans of one graph on the
// simulator, run at once on graphs of their own, take and hand back its
// search kits concurrently, and each plans what the serial cold plan of its
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
	if idle := idleSearchKits(warm, g); len(idle) == 0 || len(idle) > seeds {
		t.Errorf("after concurrent annealing plans the graph keeps %d search kits, want 1 to %d", len(idle), seeds)
	}
}

// TestSearchKitBytesEstimate: what the store counts for an idle search kit
// is what the kit keeps, within 1 %, once a random plan and then an
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
	e, _ := pl.training.get(searchKey(g))
	est := uint64(idleSearchKits(pl, g)[0].bytes)
	runtime.GC() // the simulator's pooled run memory goes at the second collection
	with := live()
	e.take()
	kept := with - live()
	runtime.KeepAlive(e)
	if est < kept*99/100 || est > kept*101/100 {
		t.Errorf("a BERT search kit estimates %d bytes, it keeps %d", est, kept)
	}
}

// TestRepeatSAPlanHeapBytes holds what a repeat graph's annealing plan on
// the simulator allocates through the Planner: BERT/edge36 at
// bert-search-sim's budget, one worker. plan(2) runs on the search kit
// plan(1), the graph's first, built and plan(3) handed back — segmenter
// tables and annealing matrix sized — and scores its samples in the
// simulator's pooled run memory, so it allocates its partitions, the best
// ones' clones, the greedy baseline, the trajectory and the annealing
// move's saved rows: 1 349 744 bytes measured when search kits were
// introduced, against 7.18 MB a plan while
// every search plan built its environment and every sample allocated its
// schedule.
func TestRepeatSAPlanHeapBytes(t *testing.T) {
	const ceiling = 1450000
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
		plan(1) // the graph's memoized layout and fingerprint, and its kit
		plan(3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan(2)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
			t.Errorf("a repeat graph's annealing plan allocates %d bytes, ceiling %d: does it build an environment, or a sample its schedule, again?", got, ceiling)
		}
	})
}

// BenchmarkPlanSASimWarmBERT times a repeat graph's annealing plan on the
// simulator at bert-search-sim's budget: BERT/edge36, 64 samples, seeds
// cycling over 1-3 on the graph's search kit.
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
