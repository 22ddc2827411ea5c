package search

import (
	"context"
	"math/rand"
	"testing"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/rl"
	"mcmpart/internal/workload"
)

func modelEnv(t *testing.T, g *graph.Graph, pkg *mcm.Package) *rl.Env {
	t.Helper()
	pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.New(pkg)
	baseTh := model.Assess(g, GreedyPackage(g, pkg)).Throughput
	if baseTh <= 0 {
		t.Fatal("greedy baseline has zero throughput")
	}
	return rl.NewEnv(rl.NewGraphContext(g), pr, model, baseTh)
}

func TestGreedyProducesValidPartitions(t *testing.T) {
	pkg := mcm.Edge36()
	for _, g := range workload.CorpusGraphs(2)[:20] {
		p := GreedyPackage(g, pkg)
		if err := p.Validate(g, pkg.Chips); err != nil {
			t.Errorf("%s: greedy invalid: %v", g.Name(), err)
		}
	}
	// BERT too, including the memory budget behavior.
	bert := workload.BERT()
	p := GreedyPackage(bert, pkg)
	if err := p.Validate(bert, pkg.Chips); err != nil {
		t.Fatalf("greedy BERT invalid: %v", err)
	}
	// The fill-style heuristic deliberately underuses the package — that
	// imbalance is the headroom the paper's methods exploit.
	if used := p.NumChipsUsed(); used < 5 || used > 25 {
		t.Fatalf("greedy BERT uses %d chips, want the fill heuristic's 5-25", used)
	}
}

func TestGreedyRespectsMemoryBudget(t *testing.T) {
	// Two fat-weight ops then many light ones: greedy must cut after the
	// first fat op rather than stack both.
	g := graph.New("fat")
	for i := 0; i < 10; i++ {
		pb := int64(0)
		if i < 2 {
			pb = 6 << 20
		}
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, ParamBytes: pb, OutputBytes: 16})
		if i > 0 {
			g.MustAddEdge(i-1, i, 16)
		}
	}
	p := GreedyPackage(g, mcm.Dev4()) // 4 chips, budget 0.7*8MiB = 5.6MiB
	if p[0] == p[1] {
		t.Fatalf("greedy stacked 12 MiB of weights on one 8 MiB chip: %v", p)
	}
}

func TestRandomSearchImproves(t *testing.T) {
	g := workload.MLP(workload.MLPConfig{Name: "m", Layers: 8, Input: 512, Hidden: 1024, Output: 128, Batch: 32})
	env := modelEnv(t, g, mcm.Dev8())
	rng := rand.New(rand.NewSource(1))
	if err := Random(context.Background(), env, 40, rng); err != nil {
		t.Fatal(err)
	}
	if env.Samples != 40 {
		t.Fatalf("samples = %d, want 40", env.Samples)
	}
	if env.BestImprovement() <= 0 {
		t.Fatal("random search found nothing")
	}
	// History must be monotone and end at the best.
	last := env.History[len(env.History)-1]
	if last != env.BestImprovement() {
		t.Fatalf("history end %v != best %v", last, env.BestImprovement())
	}
}

func TestAnnealImprovesAndRespectsBudget(t *testing.T) {
	g := workload.MLP(workload.MLPConfig{Name: "m", Layers: 8, Input: 512, Hidden: 1024, Output: 128, Batch: 32})
	env := modelEnv(t, g, mcm.Dev8())
	rng := rand.New(rand.NewSource(2))
	if err := Anneal(context.Background(), env, 40, SAConfig{}, rng); err != nil {
		t.Fatal(err)
	}
	if env.Samples < 40 {
		t.Fatalf("samples = %d, want >= 40", env.Samples)
	}
	if env.BestImprovement() <= 0 {
		t.Fatal("SA found nothing")
	}
}

// TestBudgetNeverOverrun pins the evaluation-budget contract for every
// search strategy at the edge cases: budget 0 must consume no samples at
// all (Anneal used to burn its seeding evaluation before the first budget
// check) and budget 1 exactly one.
func TestBudgetNeverOverrun(t *testing.T) {
	g := workload.MLP(workload.MLPConfig{Name: "m", Layers: 6, Input: 128, Hidden: 256, Output: 64, Batch: 8})
	ctx := context.Background()
	strategies := map[string]func(env *rl.Env, budget int, rng *rand.Rand){
		"random": func(env *rl.Env, budget int, rng *rand.Rand) { Random(ctx, env, budget, rng) },
		"anneal": func(env *rl.Env, budget int, rng *rand.Rand) { Anneal(ctx, env, budget, SAConfig{}, rng) },
	}
	for name, run := range strategies {
		for _, budget := range []int{0, 1, 2, 7} {
			env := modelEnv(t, g, mcm.Dev4())
			run(env, budget, rand.New(rand.NewSource(int64(budget)+5)))
			if env.Samples > budget {
				t.Errorf("%s with budget %d consumed %d samples", name, budget, env.Samples)
			}
			if budget > 0 && env.Samples == 0 {
				t.Errorf("%s with budget %d consumed no samples", name, budget)
			}
		}
	}
}

// TestGreedyPackageMatchesGreedyOnHomogeneous: a homogeneous package and
// the same package with its SRAM spelled out per chip give the same baseline,
// so the per-chip watermarks add nothing on equal dies.
func TestGreedyPackageMatchesGreedyOnHomogeneous(t *testing.T) {
	pkg := mcm.Dev8()
	perChip := mcm.Dev8()
	perChip.ChipSRAMBytes = make([]int64, perChip.Chips)
	for c := range perChip.ChipSRAMBytes {
		perChip.ChipSRAMBytes[c] = pkg.SRAMBytes
	}
	for _, g := range workload.CorpusGraphs(4)[:10] {
		a := GreedyPackage(g, pkg)
		b := GreedyPackage(g, perChip)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("%s: per-chip SRAM diverges from homogeneous at node %d: %v vs %v", g.Name(), v, a[v], b[v])
			}
		}
	}
}

func TestGreedyPackageRespectsPerChipBudgets(t *testing.T) {
	// Alternating fat ops on a big/little package: the little dies' 0.7 *
	// 8 MiB watermark must force earlier cuts than the big dies'.
	g := graph.New("fat")
	for i := 0; i < 8; i++ {
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, ParamBytes: 5 << 20, OutputBytes: 16})
		if i > 0 {
			g.MustAddEdge(i-1, i, 16)
		}
	}
	pkg := mcm.Het4()
	p := GreedyPackage(g, pkg)
	if err := p.Validate(g, pkg.Chips); err != nil {
		t.Fatal(err)
	}
	loads := p.Loads(g, pkg.Chips)
	// All chips but the last respect their own watermark plus at most the
	// op that crossed it; the last chip absorbs any overflow by design.
	for c := 0; c < pkg.Chips-1; c++ {
		if budget := pkg.ChipSRAM(c) * 7 / 10; loads[c].ParamBytes > budget+5<<20 {
			t.Errorf("chip %d holds %d bytes of weights against budget %d", c, loads[c].ParamBytes, budget)
		}
	}
	// The little die 2 must cut earlier than the big dies: it cannot hold
	// more weights than a big die did.
	if loads[2].ParamBytes > loads[0].ParamBytes {
		t.Errorf("little chip 2 (%d bytes) loaded beyond big chip 0 (%d bytes)", loads[2].ParamBytes, loads[0].ParamBytes)
	}
}

func TestSearchBeatsGreedyOnImbalancedGraph(t *testing.T) {
	// A graph with wildly varying node costs: node-count-balanced greedy
	// is far from compute-balanced, so even a modest random search should
	// find a better partition.
	g := workload.BuildBERT(func() workload.BERTConfig {
		cfg := workload.DefaultBERTConfig()
		cfg.Layers = 2
		cfg.SeqLen = 64
		return cfg
	}())
	env := modelEnv(t, g, mcm.Dev8())
	rng := rand.New(rand.NewSource(3))
	if err := Random(context.Background(), env, 60, rng); err != nil {
		t.Fatal(err)
	}
	if env.BestImprovement() <= 1.0 {
		t.Fatalf("random search (%.3fx) should beat the greedy baseline", env.BestImprovement())
	}
}

// TestGreedyPackageWarmAllocs: on a graph whose layout is memoized the
// greedy baseline allocates its partition and nothing else. It used to run
// its own Kahn pass and rebuild the pair rule on every call (3 755
// allocations on BERT).
func TestGreedyPackageWarmAllocs(t *testing.T) {
	g := workload.BERT()
	pkg := mcm.Edge36()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	const ceiling = 1 // the partition
	if allocs := testing.AllocsPerRun(20, func() { GreedyPackage(g, pkg) }); allocs > ceiling {
		t.Fatalf("GreedyPackage on a warm graph allocated %.1f objects, want <= %d", allocs, ceiling)
	}
}
