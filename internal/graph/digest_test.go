// External test package: the graph sets draw on internal/workload and
// internal/randgraph, which import internal/graph.
package graph_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/randgraph"
	"mcmpart/internal/workload"
)

// renamedCopy rebuilds g with the same nodes and edges in the same order
// under other node and graph names: the same raw structure, other bytes on
// the wire.
func renamedCopy(g *graph.Graph, tag string) *graph.Graph {
	out := graph.New(g.Name() + "-" + tag)
	for _, n := range g.Nodes() {
		n.Name = fmt.Sprintf("%s/%d", tag, n.ID)
		out.AddNode(n)
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(e.From, e.To, e.Bytes)
	}
	return out
}

// TestSeededCanonicalizationIsTheColdOne is the differential behind keying
// a known structure without canonicalizing it: over the fingerprint
// golden's graph set (layoutTestGraphs), the generated stream and every
// randgraph family, a renamed copy has the original's StructureDigest, and
// seeded with the original's fingerprint and canonical positions it reports
// exactly what a cold canonicalization of the copy computes — and reports
// the seeded slice, so nothing was computed again.
func TestSeededCanonicalizationIsTheColdOne(t *testing.T) {
	graphs := layoutTestGraphs()
	for i := 0; i < 20; i++ {
		graphs = append(graphs, randgraph.Sample(17, i))
	}
	for _, fam := range randgraph.Families() {
		graphs = append(graphs, randgraph.Generate(randgraph.Config{Family: fam, Nodes: 300, Seed: 5}))
	}
	for _, g := range graphs {
		fp, pos := g.Fingerprint(), graph.CanonicalPositions(g)
		seeded := renamedCopy(g, "seeded")
		if seeded.StructureDigest() != g.StructureDigest() {
			t.Errorf("%s: renaming changed the structure digest", g)
			continue
		}
		seeded.SeedCanonical(fp, pos)
		cold := renamedCopy(g, "cold")
		if got, want := seeded.Fingerprint(), cold.Fingerprint(); got != want {
			t.Errorf("%s: seeded fingerprint %s, cold %s", g, got, want)
		}
		got, want := graph.CanonicalPositions(seeded), graph.CanonicalPositions(cold)
		if !slices.Equal(got, want) {
			t.Errorf("%s: seeded canonical positions differ from the cold ones", g)
		}
		if len(got) > 0 && &got[0] != &pos[0] {
			t.Errorf("%s: the seeded graph computed its canonical positions again", g)
		}
	}
}

// TestStructureDigestSensitivity: the digest covers exactly what the
// fingerprint reads — every attribute of every node, every edge's
// endpoints and bytes, and the order of the edges (which the adjacency,
// the layout's tie-breaks and so the canonical positions follow) — and no
// name.
func TestStructureDigestSensitivity(t *testing.T) {
	base := workload.BERT()
	want := base.StructureDigest()
	// rebuild copies base with node v passed through node and the edge
	// list through edges.
	const v, ei = 17, 23
	rebuild := func(node func(*graph.Node), edges func([]graph.Edge)) *graph.Graph {
		out := graph.New(base.Name())
		for _, n := range base.Nodes() {
			if n.ID == v {
				node(&n)
			}
			out.AddNode(n)
		}
		es := slices.Clone(base.Edges())
		edges(es)
		for _, e := range es {
			out.MustAddEdge(e.From, e.To, e.Bytes)
		}
		return out
	}
	keepNode, keepEdges := func(*graph.Node) {}, func([]graph.Edge) {}
	if rebuild(keepNode, keepEdges).StructureDigest() != want {
		t.Fatal("an identical rebuild changed the digest")
	}
	if renamedCopy(base, "x").StructureDigest() != want {
		t.Error("renaming the graph and its nodes changed the digest")
	}
	for name, g := range map[string]*graph.Graph{
		"one op":           rebuild(func(n *graph.Node) { n.Op ^= 1 }, keepEdges),
		"one FLOPs":        rebuild(func(n *graph.Node) { n.FLOPs++ }, keepEdges),
		"one ParamBytes":   rebuild(func(n *graph.Node) { n.ParamBytes++ }, keepEdges),
		"one OutputBytes":  rebuild(func(n *graph.Node) { n.OutputBytes++ }, keepEdges),
		"one edge's bytes": rebuild(keepNode, func(es []graph.Edge) { es[ei].Bytes++ }),
		"the edge order":   rebuild(keepNode, func(es []graph.Edge) { es[ei], es[ei+1] = es[ei+1], es[ei] }),
	} {
		if g.StructureDigest() == want {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
}

// TestSeedCanonicalKeepsWhatWasComputed: seeding a graph that has its own
// canonicalization already changes nothing, and seeding one that has none
// while other goroutines read its fingerprint leaves every reader with the
// one value (the race detector checks the record's Once).
func TestSeedCanonicalKeepsWhatWasComputed(t *testing.T) {
	g := workload.BERT()
	fp, pos := g.Fingerprint(), graph.CanonicalPositions(g)
	g.SeedCanonical("not a fingerprint", nil)
	if g.Fingerprint() != fp || !slices.Equal(graph.CanonicalPositions(g), pos) {
		t.Fatal("seeding a fingerprinted graph replaced its fingerprint")
	}

	fresh := renamedCopy(g, "concurrent")
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				fresh.SeedCanonical(fp, pos)
			}
			got[i] = fresh.Fingerprint()
			if !slices.Equal(graph.CanonicalPositions(fresh), pos) {
				t.Errorf("reader %d: canonical positions differ from the original's", i)
			}
		}()
	}
	wg.Wait()
	for i, f := range got {
		if f != fp {
			t.Errorf("reader %d: fingerprint %s, want %s", i, f, fp)
		}
	}
}

// BenchmarkStructureDigest is what keying a known structure costs in place
// of BenchmarkFingerprint on the same 10k-node graph.
func BenchmarkStructureDigest(b *testing.B) {
	g := layered10k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.StructureDigest()
	}
}
