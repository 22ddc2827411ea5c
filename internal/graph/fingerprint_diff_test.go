// External test package: the graph sets draw on internal/workload and
// internal/randgraph, which import internal/graph.
package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/randgraph"
	"mcmpart/internal/workload"
)

// adversarialTwins hangs `twins` identical two-node chains off one root:
// two tie classes of `twins` mutually automorphic members each.
func adversarialTwins(twins int) *graph.Graph {
	g := graph.New(fmt.Sprintf("adversarial-%d", twins))
	root := g.AddNode(graph.Node{Name: "root", Op: graph.OpEmbedding, FLOPs: 1, OutputBytes: 64})
	for i := 0; i < twins; i++ {
		a := g.AddNode(graph.Node{Name: fmt.Sprintf("a%d", i), Op: graph.OpMatMul, FLOPs: 2, OutputBytes: 64})
		c := g.AddNode(graph.Node{Name: fmt.Sprintf("b%d", i), Op: graph.OpMatMul, FLOPs: 3, OutputBytes: 64})
		g.MustAddEdge(root, a, 64)
		g.MustAddEdge(a, c, 64)
	}
	return g
}

// parallelChains runs k identical chains of the given length from one
// source to one sink. Every level is one tie class of k members, and
// individualizing one level separates its neighbours one level per
// refinement round: the shape on which re-keying the whole graph every round
// costs length × n keys.
func parallelChains(k, length int) *graph.Graph {
	g := graph.New(fmt.Sprintf("chains-%dx%d", k, length))
	src := g.AddNode(graph.Node{Name: "src", Op: graph.OpInput, OutputBytes: 64})
	sink := g.AddNode(graph.Node{Name: "sink", Op: graph.OpOutput, FLOPs: 1, OutputBytes: 64})
	for c := 0; c < k; c++ {
		prev := src
		for l := 0; l < length; l++ {
			v := g.AddNode(graph.Node{Name: fmt.Sprintf("c%d/%d", c, l), Op: graph.OpMatMul, FLOPs: 2, ParamBytes: 16, OutputBytes: 64})
			g.MustAddEdge(prev, v, 64)
			prev = v
		}
		g.MustAddEdge(prev, sink, 64)
	}
	return g
}

// permuted rebuilds g with its nodes inserted in a seeded random order, so
// every node ID changes and the structure does not.
func permuted(g *graph.Graph, seed int64) *graph.Graph {
	n := g.NumNodes()
	oldOf := rand.New(rand.NewSource(seed)).Perm(n)
	newOf := make([]int, n)
	out := graph.New(g.Name() + "-permuted")
	for newID, oldID := range oldOf {
		newOf[oldID] = newID
		out.AddNode(g.Node(oldID))
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(newOf[e.From], newOf[e.To], e.Bytes)
	}
	return out
}

// TestFingerprintMatchesReference: the worklist canonicalizer returns the
// fingerprint and the canonical positions of the whole-graph refinement it
// replaced (fingerprint_ref_test.go) on the golden's graph set, the
// conformance sweep's generated stream and the adversarial tie shapes —
// and on a node-permuted copy of each, where the descending-ID peel order
// lands on different nodes.
func TestFingerprintMatchesReference(t *testing.T) {
	graphs := layoutTestGraphs()
	for i := 0; i < 40; i++ {
		graphs = append(graphs, randgraph.Sample(17, i))
	}
	for _, twins := range []int{5, 100, 400} {
		graphs = append(graphs, adversarialTwins(twins))
	}
	graphs = append(graphs, parallelChains(2, 3), parallelChains(6, 40))
	for i, g := range graphs {
		twin := permuted(g, int64(i)+1)
		for _, x := range []*graph.Graph{g, twin} {
			wantFP, wantPos := graph.RefFingerprint(x)
			if got := x.Fingerprint(); got != wantFP {
				t.Errorf("%s: fingerprint %s, reference %s", x, got, wantFP)
			}
			if !slices.Equal(graph.CanonicalPositions(x), wantPos) {
				t.Errorf("%s: canonical positions differ from the reference", x)
			}
		}
		if g.Fingerprint() != twin.Fingerprint() {
			t.Errorf("%s: node permutation changed the fingerprint", g)
		}
	}
}

// TestFingerprintWorkBound is the canonicalizer's worst-case guard, as a
// count rather than a stopwatch: the number of per-node refinement keys
// computed stays within 2(n+m) on BERT (49 peels over 12-member classes),
// on 4000 automorphic twins (two classes of 4000) and on parallel chains
// (a peel that propagates one level per round). Whole-graph refinement
// computed n keys per round: 213 rounds on BERT, one per level on the chains.
func TestFingerprintWorkBound(t *testing.T) {
	for _, g := range []*graph.Graph{
		workload.BERT(),
		adversarialTwins(4000),
		parallelChains(8, 500),
		parallelChains(64, 64),
	} {
		keyed, budget := graph.CanonicalKeysComputed(g), 2*(g.NumNodes()+g.NumEdges())
		if keyed > budget {
			t.Errorf("%s: %d refinement keys computed, more than 2(n+m) = %d", g, keyed, budget)
		}
	}
}

// TestFingerprintAllocs keeps the canonicalizer on flat storage: a cold
// Fingerprint (fresh Clone, so nothing is memoized — the layout included)
// allocated 937k times on BERT and 167k on the 10k-node layered graph when
// every digest was its own slice.
func TestFingerprintAllocs(t *testing.T) {
	for _, tc := range []struct {
		g       *graph.Graph
		ceiling float64
	}{
		{workload.BERT(), 200},
		{layered10k(), 100},
	} {
		// Clone inside the measured function would count its own
		// allocations; hand each run a clone made beforehand.
		const runs = 5
		clones := make([]*graph.Graph, runs+1) // AllocsPerRun warms up once
		for i := range clones {
			clones[i] = tc.g.Clone()
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			_ = clones[next].Fingerprint()
			next++
		})
		if allocs > tc.ceiling {
			t.Errorf("%s: cold Fingerprint allocates %.0f times, ceiling %.0f", tc.g, allocs, tc.ceiling)
		}
	}
}
