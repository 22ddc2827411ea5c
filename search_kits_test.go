package mcmpart

import (
	"context"
	"testing"
)

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
