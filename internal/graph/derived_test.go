package graph

import (
	"encoding/json"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestUnmarshalReplacesDerived: decoding into a Graph value that already
// served adjacency/Layout/Fingerprint must not leave the first graph's
// answers behind. The two graphs have equal node and edge counts, which is
// all the staleness rule looks at; before the derived record, UnmarshalJSON
// reset the fingerprint memo but not the packed-adjacency one, which kept
// returning the first graph's edges.
func TestUnmarshalReplacesDerived(t *testing.T) {
	const (
		chain   = `{"name":"a","nodes":[{"id":0,"op":1},{"id":1,"op":2},{"id":2,"op":3}],"edges":[{"from":0,"to":1,"bytes":8},{"from":1,"to":2,"bytes":8}]}`
		rewired = `{"name":"b","nodes":[{"id":0,"op":1},{"id":1,"op":2},{"id":2,"op":3}],"edges":[{"from":0,"to":2,"bytes":8},{"from":2,"to":1,"bytes":8}]}`
	)
	var g, want Graph
	if err := json.Unmarshal([]byte(chain), &g); err != nil {
		t.Fatal(err)
	}
	g.OutEdges(0)
	g.Fingerprint()
	if _, err := g.Layout(); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(rewired), &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(rewired), &want); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if got, want := g.OutEdges(v), want.OutEdges(v); !slices.Equal(got, want) {
			t.Errorf("OutEdges(%d) = %v after re-decode, want %v", v, got, want)
		}
		if got, want := g.InEdges(v), want.InEdges(v); !slices.Equal(got, want) {
			t.Errorf("InEdges(%d) = %v after re-decode, want %v", v, got, want)
		}
	}
	gl, _ := g.Layout()
	wl, _ := want.Layout()
	if !slices.Equal(gl.Order, wl.Order) || !slices.Equal(gl.Next, wl.Next) {
		t.Errorf("Layout after re-decode = %+v, want %+v", gl, wl)
	}
	if g.Fingerprint() != want.Fingerprint() {
		t.Error("Fingerprint after re-decode is not the second graph's")
	}
	if !slices.Equal(CanonicalPositions(&g), CanonicalPositions(&want)) {
		t.Error("CanonicalPositions after re-decode are not the second graph's")
	}
}

// TestAdjacencyGrowsAfterRead: the adjacency is derived, so reading it in
// the middle of construction must not freeze it. Every read after an
// AddNode or AddEdge describes the graph as it is then, edges in insertion
// order, and the slices handed out before stay what they were.
func TestAdjacencyGrowsAfterRead(t *testing.T) {
	g := New("growing")
	a, b, c := g.AddNode(Node{}), g.AddNode(Node{}), g.AddNode(Node{})
	g.MustAddEdge(a, c, 1)
	before := g.OutEdges(a)
	if !slices.Equal(before, []int32{0}) || g.InDegree(c) != 1 || g.OutDegree(b) != 0 {
		t.Fatalf("first read: OutEdges(a) = %v, InDegree(c) = %d, OutDegree(b) = %d", before, g.InDegree(c), g.OutDegree(b))
	}
	g.MustAddEdge(b, c, 2)
	g.MustAddEdge(a, b, 3)
	if got := g.OutEdges(a); !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("OutEdges(a) after two more edges = %v, want [0 2]", got)
	}
	if got := g.InEdges(c); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("InEdges(c) after two more edges = %v, want [0 1]", got)
	}
	if !slices.Equal(before, []int32{0}) {
		t.Errorf("the slice read before the graph grew now reads %v", before)
	}
	d := g.AddNode(Node{})
	if g.OutDegree(d) != 0 || g.InDegree(d) != 0 || g.OutDegree(c) != 0 {
		t.Errorf("a node added after a read: out %d, in %d, OutDegree(c) %d", g.OutDegree(d), g.InDegree(d), g.OutDegree(c))
	}
	g.MustAddEdge(c, d, 4)
	if got := g.Successors(c); !slices.Equal(got, []int{d}) {
		t.Errorf("Successors(c) = %v, want [%d]", got, d)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedConcurrentReaders is meant for -race: many goroutines ask a
// fresh graph for everything it memoizes at once and must all be handed
// the same record; growing the graph afterwards starts a new one.
func TestDerivedConcurrentReaders(t *testing.T) {
	g := New("shared")
	const n = 64
	for i := 0; i < n; i++ {
		g.AddNode(Node{Op: OpKind(i % NumOpKinds), FLOPs: float64(i), OutputBytes: 8})
	}
	for i := 1; i < n-1; i++ {
		g.MustAddEdge(i-1, i, 8)
	}
	const readers = 16
	layouts := make([]*Layout, readers)
	outs := make([][]int32, readers)
	prints := make([]string, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Rotate the first call so every Once is contended.
			for k := 0; k < 4; k++ {
				switch (r + k) % 4 {
				case 0:
					layouts[r], _ = g.Layout()
				case 1:
					outs[r] = g.OutEdges(0)
				case 2:
					prints[r] = g.Fingerprint()
				case 3:
					if err := g.Validate(); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		if layouts[r] != layouts[0] || &outs[r][0] != &outs[0][0] || prints[r] != prints[0] {
			t.Fatalf("reader %d was handed its own derived structures", r)
		}
	}

	// The last node is still isolated: wiring it in is a new graph state.
	g.MustAddEdge(n-2, n-1, 8)
	lay, err := g.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if lay == layouts[0] || lay.Next[n-2] != n-1 || lay.CapFrom[0] != n-1 {
		t.Errorf("Layout after AddEdge does not describe the grown graph: %+v", lay)
	}
	if got := g.InEdges(n - 1); !slices.Equal(got, []int32{n - 2}) {
		t.Errorf("InEdges(%d) after AddEdge = %v, want the new edge", n-1, got)
	}
	if g.Fingerprint() == prints[0] {
		t.Error("Fingerprint did not change after AddEdge")
	}
}

// TestLayoutWarmAllocs: a second Layout() is a pointer load. It was a full
// Kahn pass through container/heap before (3 752 allocations on BERT), and
// every consumer paid it again.
func TestLayoutWarmAllocs(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(7)), 200)
	if _, err := g.Layout(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = g.Layout() }); allocs != 0 {
		t.Fatalf("warm Layout() allocates %v times, want 0", allocs)
	}
}
