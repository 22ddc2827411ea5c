// External test package: the benchmark draws its 10k-node input from
// internal/randgraph, which itself imports internal/graph — an in-package
// benchmark would be an import cycle.
package graph_test

import (
	"fmt"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/randgraph"
)

// BenchmarkFingerprint measures canonical fingerprinting on a 10k-node
// generated graph — the scale at which Service plan-cache keys are computed
// for large models. Each iteration clones the graph first so the
// memo cannot short-circuit the work being measured.
func BenchmarkFingerprint(b *testing.B) {
	g := randgraph.Generate(randgraph.Config{Family: randgraph.FamilyLayered, Nodes: 10_000, Seed: 42})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := g.Clone()
		b.StartTimer()
		_ = c.Fingerprint()
	}
}

// BenchmarkFingerprintAdversarial measures the refinement-with-
// individualization stress case documented on canonicalPositions: many
// mutually automorphic nodes (identical parallel two-node chains hanging
// off one root). Whole-class peeling keeps this near-linear — one
// individualization round per tie class, not per tied member; before that
// fix, 4x the twins cost ~17x the time (one round per member, each round
// re-refining the whole graph). Kept benchmarked so a regression shows up
// as a number, not an anecdote.
func BenchmarkFingerprintAdversarial(b *testing.B) {
	for _, twins := range []int{100, 400} {
		b.Run(fmt.Sprintf("twins=%d", twins), func(b *testing.B) {
			g := graph.New(fmt.Sprintf("adversarial-%d", twins))
			root := g.AddNode(graph.Node{Name: "root", Op: graph.OpEmbedding, FLOPs: 1, OutputBytes: 64})
			for i := 0; i < twins; i++ {
				a := g.AddNode(graph.Node{Name: fmt.Sprintf("a%d", i), Op: graph.OpMatMul, FLOPs: 2, OutputBytes: 64})
				c := g.AddNode(graph.Node{Name: fmt.Sprintf("b%d", i), Op: graph.OpMatMul, FLOPs: 3, OutputBytes: 64})
				g.MustAddEdge(root, a, 64)
				g.MustAddEdge(a, c, 64)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := g.Clone()
				b.StartTimer()
				_ = c.Fingerprint()
			}
		})
	}
}
