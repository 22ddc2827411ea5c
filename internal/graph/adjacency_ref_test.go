package graph_test

import (
	"encoding/json"
	"slices"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/randgraph"
	"mcmpart/internal/workload"
)

// refAdjacency is the adjacency AddNode and AddEdge maintained before it
// became a derived structure, kept verbatim from the commit before (830860d,
// internal/graph/graph.go:84-90,125-129): one growing list of edge indices
// per node and direction, appended to as the edges arrive.
func refAdjacency(g *graph.Graph) (outEdges, inEdges [][]int32) {
	for range g.Nodes() {
		outEdges = append(outEdges, nil)
		inEdges = append(inEdges, nil)
	}
	for i, e := range g.Edges() {
		idx := int32(i)
		outEdges[e.From] = append(outEdges[e.From], idx)
		inEdges[e.To] = append(inEdges[e.To], idx)
	}
	return outEdges, inEdges
}

// TestAdjacencyMatchesTheListsItReplaced: the packed adjacency hands out,
// node for node and element for element, the per-node lists it replaced —
// insertion order included, which the fingerprint, the layout's tie-breaks
// and the solver's propagation order all depend on.
func TestAdjacencyMatchesTheListsItReplaced(t *testing.T) {
	for _, g := range layoutTestGraphs() {
		wantOut, wantIn := refAdjacency(g)
		for v := 0; v < g.NumNodes(); v++ {
			if got := g.OutEdges(v); !slices.Equal(got, wantOut[v]) {
				t.Fatalf("%s: OutEdges(%d) = %v, want %v", g, v, got, wantOut[v])
			}
			if got := g.InEdges(v); !slices.Equal(got, wantIn[v]) {
				t.Fatalf("%s: InEdges(%d) = %v, want %v", g, v, got, wantIn[v])
			}
			if g.OutDegree(v) != len(wantOut[v]) || g.InDegree(v) != len(wantIn[v]) {
				t.Fatalf("%s: degrees of %d = out %d, in %d, want %d, %d", g, v, g.OutDegree(v), g.InDegree(v), len(wantOut[v]), len(wantIn[v]))
			}
		}
	}
}

// layered10k is the serve-warm request graph's shape: what the daemon
// decodes, validates and keys on every warm hit.
func layered10k() *graph.Graph {
	return randgraph.Generate(randgraph.Config{Family: randgraph.FamilyLayered, Nodes: 10_000, Seed: 42})
}

// TestDecodeAndCloneAllocs holds the cost of getting a graph into the
// process. Decoding a wire body and keying it — the whole warm path before
// the cache lookup — allocated 36.4k times for the 10k-node graph and 6.8k
// for BERT when UnmarshalJSON re-added every node and edge into a second
// graph with two lists per node and an edge map, and 10.1k / 2.2k while
// encoding/json made one string per node name. What is left is the growth
// of the node, edge and name arrays (about 90 steps for 10k nodes) and the
// fingerprint's 46. Clone allocated 19.7k / 4.3k times; it is now the graph
// and its two slices.
func TestDecodeAndCloneAllocs(t *testing.T) {
	for _, g := range []*graph.Graph{layered10k(), workload.BERT()} {
		body, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Fingerprint()
		if allocs := testing.AllocsPerRun(3, func() {
			var d graph.Graph
			if err := d.UnmarshalJSON(body); err != nil {
				t.Fatal(err)
			}
			if d.Fingerprint() != want {
				t.Fatal("decoded graph fingerprints differently")
			}
		}); allocs > 150 {
			t.Errorf("%s: decode + Fingerprint allocates %.0f times, ceiling 150", g, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = g.Clone() }); allocs > 4 {
			t.Errorf("%s: Clone allocates %.0f times, ceiling 4", g, allocs)
		}
	}
}

// BenchmarkDecode10k is the number beside TestDecodeAndCloneAllocs' ceiling:
// UnmarshalJSON (which validates) plus Fingerprint of the 10k-node layered
// graph, the daemon's work per warm request before it has a cache key.
func BenchmarkDecode10k(b *testing.B) {
	body, err := json.Marshal(layered10k())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var g graph.Graph
		if err := g.UnmarshalJSON(body); err != nil {
			b.Fatal(err)
		}
		_ = g.Fingerprint()
	}
}
