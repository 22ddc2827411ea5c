// External test package: the benchmark draws its 10k-node input from
// internal/randgraph, which itself imports internal/graph — an in-package
// benchmark would be an import cycle.
package graph_test

import (
	"testing"

	"mcmpart/internal/graph"
)

// BenchmarkFingerprint measures canonical fingerprinting on a 10k-node
// generated graph — the scale at which Service plan-cache keys are computed
// for large models. Each iteration clones the graph first so the
// memo cannot short-circuit the work being measured.
func BenchmarkFingerprint(b *testing.B) {
	g := layered10k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := g.Clone()
		b.StartTimer()
		_ = c.Fingerprint()
	}
}

// BenchmarkFingerprintAdversarial measures the tie shapes that stress
// refinement with individualization (canonicalPositions): many mutually
// automorphic nodes — identical two-node chains hanging off one root — and
// k identical parallel chains, where a peel propagates one level per round.
// Both must stay near-linear in n+m: the twins were quadratic before a tie
// class was peeled whole (4x the twins cost ~17x the time), the chains
// before refinement kept a worklist (every round re-keyed every node).
// TestFingerprintWorkBound asserts the count; this keeps the time a number.
func BenchmarkFingerprintAdversarial(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"twins=100", adversarialTwins(100)},
		{"twins=400", adversarialTwins(400)},
		{"twins=4000", adversarialTwins(4000)},
		{"chains=8x500", parallelChains(8, 500)},
		{"chains=64x64", parallelChains(64, 64)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := tc.g.Clone()
				b.StartTimer()
				_ = c.Fingerprint()
			}
		})
	}
}
