package graph

import (
	"encoding/binary"
	"slices"
	"testing"
)

// fpDiamond builds a 4-node diamond (a -> b,c -> d) with distinguishable
// costs, inserting nodes in the order perm lists the roles
// {0:a, 1:b, 2:c, 3:d}. Every insertion order produces an isomorphic graph
// with different node IDs.
func fpDiamond(t *testing.T, perm [4]int) *Graph {
	t.Helper()
	roles := [4]Node{
		{Name: "a", Op: 1, FLOPs: 100, ParamBytes: 10, OutputBytes: 1000},
		{Name: "b", Op: 2, FLOPs: 200, ParamBytes: 20, OutputBytes: 2000},
		{Name: "c", Op: 3, FLOPs: 300, ParamBytes: 30, OutputBytes: 3000},
		{Name: "d", Op: 4, FLOPs: 400, ParamBytes: 40, OutputBytes: 4000},
	}
	g := New("diamond")
	id := map[int]int{} // role -> assigned ID
	for _, role := range perm {
		id[role] = g.AddNode(roles[role])
	}
	edges := [][3]int64{{0, 1, 11}, {0, 2, 22}, {1, 3, 33}, {2, 3, 44}}
	for _, e := range edges {
		if err := g.AddEdge(id[int(e[0])], id[int(e[1])], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestFingerprintInsertionOrderInvariant(t *testing.T) {
	want := fpDiamond(t, [4]int{0, 1, 2, 3}).Fingerprint()
	if len(want) != 64 {
		t.Fatalf("fingerprint is %d hex chars, want 64", len(want))
	}
	for _, perm := range [][4]int{
		{3, 2, 1, 0}, {1, 0, 3, 2}, {2, 3, 0, 1}, {0, 2, 1, 3},
	} {
		if got := fpDiamond(t, perm).Fingerprint(); got != want {
			t.Errorf("insertion order %v changed fingerprint: %s != %s", perm, got, want)
		}
	}
}

func TestFingerprintInsertionOrderInvariantChain(t *testing.T) {
	// A chain of identical layers: every node has the same attributes, so
	// only ancestor/descendant structure distinguishes positions.
	build := func(forward bool) *Graph {
		g := New("chain")
		const n = 9
		ids := make([]int, n)
		for i := 0; i < n; i++ {
			ids[i] = g.AddNode(Node{Name: "fc", Op: 4, FLOPs: 1e6, ParamBytes: 1 << 12, OutputBytes: 1 << 10})
		}
		if !forward {
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
		for i := 0; i+1 < n; i++ {
			g.MustAddEdge(ids[i], ids[i+1], 1<<10)
		}
		return g
	}
	if a, b := build(true).Fingerprint(), build(false).Fingerprint(); a != b {
		t.Fatalf("chain fingerprint depends on insertion direction: %s != %s", a, b)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpDiamond(t, [4]int{0, 1, 2, 3}).Fingerprint()
	mutate := func(name string, f func(*Graph) *Graph) {
		g := f(fpDiamond(t, [4]int{0, 1, 2, 3}))
		if got := g.Fingerprint(); got == base {
			t.Errorf("%s did not change the fingerprint", name)
		}
	}
	mutate("op change", func(g *Graph) *Graph {
		g.nodes[1].Op = 7
		return g
	})
	mutate("flops change", func(g *Graph) *Graph {
		g.nodes[2].FLOPs = 301
		return g
	})
	mutate("param-bytes change", func(g *Graph) *Graph {
		g.nodes[0].ParamBytes = 11
		return g
	})
	mutate("output-bytes change", func(g *Graph) *Graph {
		g.nodes[3].OutputBytes = 4001
		return g
	})
	mutate("edge-bytes change", func(g *Graph) *Graph {
		g.edges[0].Bytes = 12
		return g
	})
	mutate("extra node", func(g *Graph) *Graph {
		id := g.AddNode(Node{Name: "e", Op: 5, FLOPs: 500, OutputBytes: 5000})
		g.MustAddEdge(3, id, 55)
		return g
	})
	mutate("extra edge", func(g *Graph) *Graph {
		g.MustAddEdge(0, 3, 66)
		return g
	})
}

func TestFingerprintIgnoresNames(t *testing.T) {
	a := fpDiamond(t, [4]int{0, 1, 2, 3})
	b := fpDiamond(t, [4]int{0, 1, 2, 3})
	b.name = "renamed"
	for i := range b.nodes {
		b.nodes[i].Name = "x"
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("names must not participate in the fingerprint")
	}
}

func TestFingerprintEmptyAndCyclic(t *testing.T) {
	if New("empty").Fingerprint() == "" {
		t.Fatal("empty graph must still fingerprint")
	}
	g := New("cycle")
	a := g.AddNode(Node{Op: 1})
	b := g.AddNode(Node{Op: 2})
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(b, a, 1)
	if g.Fingerprint() == "" || g.Fingerprint() != g.Fingerprint() {
		t.Fatal("cyclic graph must fingerprint deterministically")
	}
}

func TestFingerprintParallelIdenticalChains(t *testing.T) {
	// Two identical parallel chains s -> a_i -> m_i -> t: the a-nodes tie
	// on signature and the m-nodes tie on signature, across two levels. A
	// naive per-class ID tie-break can pair a1 with m2, interleaving the
	// chains differently per insertion order; individualized refinement
	// must keep each chain aligned. (Regression for exactly that bug.)
	build := func(order []int) *Graph {
		g := New("chains")
		ids := make(map[int]int)
		nodes := []Node{
			{Op: 1, FLOPs: 1, OutputBytes: 10}, // 0: s
			{Op: 2, FLOPs: 2, OutputBytes: 20}, // 1: a1
			{Op: 2, FLOPs: 2, OutputBytes: 20}, // 2: a2
			{Op: 5, FLOPs: 7, OutputBytes: 70}, // 3: m1
			{Op: 5, FLOPs: 7, OutputBytes: 70}, // 4: m2
			{Op: 3, FLOPs: 3, OutputBytes: 30}, // 5: t
		}
		for _, r := range order {
			ids[r] = g.AddNode(nodes[r])
		}
		g.MustAddEdge(ids[0], ids[1], 5)
		g.MustAddEdge(ids[0], ids[2], 5)
		g.MustAddEdge(ids[1], ids[3], 6)
		g.MustAddEdge(ids[2], ids[4], 6)
		g.MustAddEdge(ids[3], ids[5], 8)
		g.MustAddEdge(ids[4], ids[5], 8)
		return g
	}
	want := build([]int{0, 1, 2, 3, 4, 5}).Fingerprint()
	for _, order := range [][]int{
		{0, 1, 2, 4, 3, 5}, // swap only the m-level: a1 pairs with higher m ID
		{5, 4, 3, 2, 1, 0},
		{0, 2, 1, 3, 4, 5},
		{3, 0, 4, 1, 5, 2},
	} {
		if got := build(order).Fingerprint(); got != want {
			t.Errorf("insertion order %v changed fingerprint: %s != %s", order, got, want)
		}
	}
}

func TestFingerprintSymmetricTwinsStable(t *testing.T) {
	// Two structurally identical parallel branches: the twins tie on
	// signature, and the tie-break must not leak into the encoding.
	build := func(order []int) *Graph {
		g := New("twins")
		ids := make(map[int]int)
		nodes := []Node{
			{Op: 1, FLOPs: 1, OutputBytes: 10},
			{Op: 2, FLOPs: 2, OutputBytes: 20}, // twin 1
			{Op: 2, FLOPs: 2, OutputBytes: 20}, // twin 2
			{Op: 3, FLOPs: 3, OutputBytes: 30},
		}
		for _, r := range order {
			ids[r] = g.AddNode(nodes[r])
		}
		g.MustAddEdge(ids[0], ids[1], 5)
		g.MustAddEdge(ids[0], ids[2], 5)
		g.MustAddEdge(ids[1], ids[3], 6)
		g.MustAddEdge(ids[2], ids[3], 6)
		return g
	}
	a := build([]int{0, 1, 2, 3}).Fingerprint()
	b := build([]int{3, 2, 1, 0}).Fingerprint()
	if a != b {
		t.Fatalf("symmetric twins made the fingerprint order-dependent: %s != %s", a, b)
	}
}

// TestCanonicalPositionsOrdersBySignature: canonicalPositions sorts node IDs
// packed into the low bits of their signatures, so signatures that differ
// only in those bits come out in ID order and must be re-sorted. Four
// isolated nodes, three of them with signatures that share every bit above
// the ID's three: positions follow the signatures, as in the reference.
func TestCanonicalPositionsOrdersBySignature(t *testing.T) {
	g := New("isolated")
	for i := 0; i < 4; i++ {
		g.AddNode(Node{Op: 1})
	}
	sig := []uint64{0x10 | 5, 0x10 | 1, 0x10 | 3, 0x08}
	pos, _ := canonicalPositions(g, sig)
	b := make([][]byte, len(sig))
	for v, s := range sig {
		b[v] = binary.BigEndian.AppendUint64(nil, s)
	}
	if want := refCanonicalPositions(g, b); !slices.Equal(pos, want) || !slices.Equal(pos, []int{3, 1, 2, 0}) {
		t.Errorf("positions %v, want %v (the reference's %v)", pos, []int{3, 1, 2, 0}, want)
	}
}
