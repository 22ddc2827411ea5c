package workload

import (
	"strings"
	"testing"
)

// TestAugmentedCorpusIsOptIn pins that random == 0 changes nothing: the
// augmentation must never silently alter the paper-faithful default corpus.
func TestAugmentedCorpusIsOptIn(t *testing.T) {
	base := CorpusGraphs(1)
	aug := AugmentedCorpusGraphs(1, 0)
	if len(aug) != len(base) {
		t.Fatalf("AugmentedCorpusGraphs(seed, 0) returned %d graphs, want %d", len(aug), len(base))
	}
	for i := range base {
		if aug[i].Fingerprint() != base[i].Fingerprint() {
			t.Fatalf("AugmentedCorpusGraphs(seed, 0) changed corpus graph %d", i)
		}
	}
}

// TestAugmentedCorpusAppendsRandomFamilies checks the opt-in path: counts
// add up, the corpus models come first and unchanged, the extra graphs come
// from the randgraph families, and the whole list stays deterministic.
func TestAugmentedCorpusAppendsRandomFamilies(t *testing.T) {
	const extra = 32
	a := AugmentedCorpusGraphs(7, extra)
	b := AugmentedCorpusGraphs(7, extra)
	if len(a) != CorpusSize+extra {
		t.Fatalf("augmented corpus has %d graphs, want %d", len(a), CorpusSize+extra)
	}
	for i, g := range CorpusGraphs(7) {
		if a[i].Fingerprint() != g.Fingerprint() {
			t.Fatalf("augmentation changed corpus graph %d", i)
		}
	}
	for _, g := range a[CorpusSize:] {
		if !strings.HasPrefix(g.Name(), "rand-") {
			t.Fatalf("augmented graph %s is not from a randgraph family", g.Name())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("augmented graph %s invalid: %v", g.Name(), err)
		}
	}
	for i := range a {
		if a[i].Fingerprint() != b[i].Fingerprint() {
			t.Fatal("augmented corpus is not deterministic")
		}
	}
}
