package cpsolver

import (
	"math/rand"
	"testing"

	"mcmpart/internal/mcm"
	"mcmpart/internal/workload"
)

// TestAutoHandlesWholeCorpus is the experiment-readiness gate: every graph
// in the pre-training corpus must yield valid partitions on the 36-chip
// package, repeatedly and quickly, in both SAMPLE and FIX mode.
func TestAutoHandlesWholeCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range workload.CorpusGraphs(1) {
		pr, err := NewAutoPkg(g, mcm.Edge36(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		for rep := 0; rep < 3; rep++ {
			p, err := pr.SampleMode(nil, rng)
			if err != nil {
				t.Fatalf("%s rep %d (%T): %v", g.Name(), rep, pr, err)
			}
			if err := p.Validate(g, 36); err != nil {
				t.Fatalf("%s rep %d: %v", g.Name(), rep, err)
			}
		}
		hint := make([]int, g.NumNodes())
		for i := range hint {
			hint[i] = rng.Intn(36)
		}
		if _, err := pr.FixMode(hint, rng); err != nil {
			t.Fatalf("%s fix (%T): %v", g.Name(), pr, err)
		}
	}
}
