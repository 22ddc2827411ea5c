package graph

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzParseJSON fuzzes the wire-format trust boundary: for arbitrary bytes
// the decoder gives the verdict and the graph of the encoding/json decode it
// replaced (encoding_ref_test.go; a second nodes or edges array, which that
// one merged, is rejected), and a graph it accepts validates, survives a
// marshal/unmarshal round trip, and keeps its fingerprint.
func FuzzParseJSON(f *testing.F) {
	f.Add([]byte(`{"name":"g","nodes":[{"id":0,"op":4,"flops":10,"output_bytes":8},{"id":1,"op":7}],"edges":[{"from":0,"to":1,"bytes":8}]}`))
	f.Add([]byte(`{"name":"g","nodes":[{"id":0,"op":99}]}`))
	f.Add([]byte(`{"name":"g","nodes":[{"id":0,"op":4}],"edges":[{"from":0,"to":7,"bytes":1}]}`))
	f.Add([]byte(`{"name":"g","nodes":[{"id":0,"op":4},{"id":1,"op":4}],"edges":[{"from":0,"to":1,"bytes":-5}]}`))
	f.Add([]byte(`{"nodes":null,"edges":null}`))
	f.Add([]byte(`[]`))
	for _, tc := range decodeCases {
		if len(tc.Doc) < 1<<10 { // the depth rows would have the engine mutate 10 kB at a time
			f.Add([]byte(tc.Doc))
		}
	}
	for _, doc := range repeatedArrayCases {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkDecodeMatchesReference(t, data) {
			return // rejected by both: fine, as long as it never panics
		}
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			t.Fatalf("accepted by UnmarshalJSON, rejected through encoding/json: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", err)
		}
		fp := g.Fingerprint()
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("re-encoding a decoded graph: %v", err)
		}
		var back Graph
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("round trip failed to decode: %v", err)
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %s vs %s", back.String(), g.String())
		}
		if back.Fingerprint() != fp {
			t.Fatalf("round trip changed fingerprint")
		}
	})
}

// FuzzFingerprint fuzzes the canonical-fingerprint contract on decoded
// graphs: the fingerprint is deterministic, survives Clone, is invariant
// under node-insertion-order permutation, and changes when a node's
// operator kind changes. A renamed copy has the graph's StructureDigest
// and, seeded with its fingerprint and canonical positions, reports what
// canonicalizing the copy cold does; changing an operator, an edge's bytes
// or the edge order changes the digest. Against the whole-graph refinement in
// fingerprint_ref_test.go: the canonical positions of the decoded graph and
// of its permuted rebuild are what it makes of the 64-bit signatures
// (RefPositions), and the graph, the rebuild and the mutated graph share a
// fingerprint iff they share its v=2 fingerprint (SameKeyPartition).
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte(`{"name":"g","nodes":[{"id":0,"op":4,"flops":10,"output_bytes":8},{"id":1,"op":7},{"id":2,"op":7}],"edges":[{"from":0,"to":1,"bytes":8},{"from":0,"to":2,"bytes":8}]}`), int64(1))
	f.Add([]byte(`{"name":"twins","nodes":[{"id":0,"op":0,"output_bytes":4},{"id":1,"op":4,"flops":5},{"id":2,"op":4,"flops":5},{"id":3,"op":12}],"edges":[{"from":0,"to":1,"bytes":4},{"from":0,"to":2,"bytes":4},{"from":1,"to":3,"bytes":1},{"from":2,"to":3,"bytes":1}]}`), int64(7))
	f.Fuzz(func(t *testing.T, data []byte, permSeed int64) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return
		}
		fp := g.Fingerprint()
		if fp == "" || fp != g.Clone().Fingerprint() {
			t.Fatalf("fingerprint not stable under Clone")
		}
		// Rebuild with a random node-insertion order: isomorphic graphs
		// must fingerprint identically.
		n := g.NumNodes()
		perm := rand.New(rand.NewSource(permSeed)).Perm(n)
		rebuilt := New(g.Name())
		for newID := 0; newID < n; newID++ {
			nd := g.Node(perm[newID])
			nd.ID = 0 // AddNode reassigns
			rebuilt.AddNode(nd)
		}
		pos := make([]int, n)
		for newID, oldID := range perm {
			pos[oldID] = newID
		}
		for _, e := range g.Edges() {
			if err := rebuilt.AddEdge(pos[e.From], pos[e.To], e.Bytes); err != nil {
				t.Fatalf("rebuilding permuted graph: %v", err)
			}
		}
		if got := rebuilt.Fingerprint(); got != fp {
			t.Fatalf("insertion-order permutation changed the fingerprint")
		}
		for _, x := range []*Graph{&g, rebuilt} {
			if !slices.Equal(CanonicalPositions(x), RefPositions(x)) {
				t.Fatalf("%s: canonical positions differ from the reference refinement", x)
			}
		}
		// A partition carried through canonical positions to the permuted
		// rebuild validates there: place every node on the chip of its
		// topological level (monotone along g's edges), store it by
		// canonical position, read it back through the rebuild's own
		// positions. The rebuild's edges must stay monotone and every chip
		// must carry the same weights.
		if err := carriedPartitionFits(&g, rebuilt); err != nil {
			t.Fatal(err)
		}
		// Sensitivity: flipping one node's operator must change it.
		mutated := New(g.Name())
		for v := 0; v < n; v++ {
			nd := g.Node(v)
			if v == int(uint64(permSeed)%uint64(n)) {
				nd.Op = OpKind((int(nd.Op) + 1) % NumOpKinds)
			}
			mutated.AddNode(nd)
		}
		for _, e := range g.Edges() {
			mutated.MustAddEdge(e.From, e.To, e.Bytes)
		}
		if mutated.Fingerprint() == fp {
			t.Fatalf("operator mutation did not change the fingerprint")
		}
		checkSeededRename(t, &g)
		if mutated.StructureDigest() == g.StructureDigest() {
			t.Fatalf("operator mutation did not change the structure digest")
		}
		if m := g.NumEdges(); m > 0 {
			edges := slices.Clone(g.Edges())
			i := int(uint64(permSeed) % uint64(m))
			edges[i].Bytes ^= 1
			if withEdges(&g, edges).StructureDigest() == g.StructureDigest() {
				t.Fatalf("changing edge %d's bytes did not change the structure digest", i)
			}
			if m > 1 {
				edges[i].Bytes ^= 1
				j := (i + 1) % m
				edges[i], edges[j] = edges[j], edges[i]
				if withEdges(&g, edges).StructureDigest() == g.StructureDigest() {
					t.Fatalf("swapping edges %d and %d did not change the structure digest", i, j)
				}
			}
		}
		if err := SameKeyPartition([]*Graph{&g, rebuilt, mutated}); err != nil {
			t.Fatal(err)
		}
	})
}

// checkSeededRename renames g's nodes, requires the copy to keep g's
// StructureDigest, seeds it with g's canonicalization and requires what it
// reports to be what a cold canonicalization of another renamed copy
// computes.
func checkSeededRename(t *testing.T, g *Graph) {
	t.Helper()
	renamed := func(tag string) *Graph {
		out := New(tag)
		for _, nd := range g.Nodes() {
			nd.Name = fmt.Sprintf("%s%d", tag, nd.ID)
			out.AddNode(nd)
		}
		out.edges = slices.Clone(g.Edges())
		return out
	}
	seeded, cold := renamed("seeded"), renamed("cold")
	if seeded.StructureDigest() != g.StructureDigest() {
		t.Fatalf("renaming changed the structure digest")
	}
	seeded.SeedCanonical(g.Fingerprint(), CanonicalPositions(g))
	if seeded.Fingerprint() != cold.Fingerprint() || !slices.Equal(CanonicalPositions(seeded), CanonicalPositions(cold)) {
		t.Fatalf("a seeded renamed copy reports another canonicalization than a cold one")
	}
}

// withEdges is g's nodes with edges in place of g's edges.
func withEdges(g *Graph, edges []Edge) *Graph {
	return &Graph{name: g.name, nodes: g.nodes, edges: edges}
}

// carriedPartitionFits builds a partition of g (chip = topological level),
// carries it to h — a graph with g's fingerprint — through both graphs'
// canonical positions, and checks it still fits: monotone along every edge
// of h, the same parameter bytes and FLOPs on every chip.
func carriedPartitionFits(g, h *Graph) error {
	n := g.NumNodes()
	gpos, hpos := CanonicalPositions(g), CanonicalPositions(h)
	if len(gpos) != n || len(hpos) != n {
		return fmt.Errorf("canonical positions cover %d and %d of %d nodes", len(gpos), len(hpos), n)
	}
	lay, err := g.Layout()
	if err != nil {
		return err
	}
	level := make([]int, n)
	for _, v := range lay.Order {
		for _, e := range g.InEdges(v) {
			if u := g.edges[e].From; level[u]+1 > level[v] {
				level[v] = level[u] + 1
			}
		}
	}
	canon := make([]int, n)
	for v, p := range gpos {
		canon[p] = level[v]
	}
	carried := make([]int, n)
	for w, p := range hpos {
		carried[w] = canon[p]
	}
	for _, e := range h.Edges() {
		if carried[e.From] >= carried[e.To] {
			return fmt.Errorf("carried partition breaks edge (%d,%d): level %d -> %d", e.From, e.To, carried[e.From], carried[e.To])
		}
	}
	type load struct {
		params int64
		flops  float64
	}
	loads := func(x *Graph, chip []int) map[int]load {
		out := map[int]load{}
		for v, c := range chip {
			nd := x.Node(v)
			l := out[c]
			out[c] = load{l.params + nd.ParamBytes, l.flops + nd.FLOPs}
		}
		return out
	}
	want, got := loads(g, level), loads(h, carried)
	for c, l := range want {
		// Sums of the same multiset may round differently in another
		// order; parameter bytes are exact, FLOPs compared loosely.
		if got[c].params != l.params || math.Abs(got[c].flops-l.flops) > 1e-9*math.Abs(l.flops) {
			return fmt.Errorf("chip %d carries %+v on the rebuild, %+v on the original", c, got[c], l)
		}
	}
	return nil
}
