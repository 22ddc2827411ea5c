package mcmpart

import (
	"context"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/rl"
)

// TestTrainingStoreCountsRealEvictions: evictions count only what the
// store let go. A kit handed back to an entry the store evicted while the
// kit's plan ran re-weighs nothing: the entry stays out and what evicted it
// stays in. Mutation caught: a re-weigh that puts back an evicted entry.
func TestTrainingStoreCountsRealEvictions(t *testing.T) {
	pl, _ := deployedPlanner(t)
	a := CorpusGraphs(1)[40]
	plan := func(g *Graph, seed int64, progress func(ProgressEvent)) {
		t.Helper()
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodRL, SampleBudget: 8, Seed: seed, Progress: progress}); err != nil {
			t.Fatal(err)
		}
	}
	// Room for one graph's context and kit; b is a's shape under another
	// digest, so its context and kit weigh what a's do.
	pl.training = newKitStore[*rl.GraphContext](coldPlan(t, a, PlanOptions{Method: MethodRL, SampleBudget: 8, Seed: 1}).kept)
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
	if _, held := pl.training.get(a.StructureDigest()); held || len(idleKits(t, pl, MethodRL, b)) != 1 || pl.training.evictions.Load() != ev {
		t.Errorf("a kit handed back to an evicted entry put it back (held %t, %d evictions, want %d)", held, pl.training.evictions.Load(), ev)
	}
	checkKits(t, pl.training, true)
}
