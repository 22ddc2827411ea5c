package graph

import (
	"encoding/json"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestUnmarshalReplacesDerived: decoding into a Graph value that already
// served CSR/Layout/Fingerprint must not leave the first graph's answers
// behind. The two graphs have equal node and edge counts, which is all the
// staleness rule looks at; before the derived record, UnmarshalJSON reset
// the fingerprint memo but not the CSR one, so CSR() kept returning the
// first graph's adjacency.
func TestUnmarshalReplacesDerived(t *testing.T) {
	const (
		chain   = `{"name":"a","nodes":[{"id":0,"op":1},{"id":1,"op":2},{"id":2,"op":3}],"edges":[{"from":0,"to":1,"bytes":8},{"from":1,"to":2,"bytes":8}]}`
		rewired = `{"name":"b","nodes":[{"id":0,"op":1},{"id":1,"op":2},{"id":2,"op":3}],"edges":[{"from":0,"to":2,"bytes":8},{"from":2,"to":1,"bytes":8}]}`
	)
	var g, want Graph
	if err := json.Unmarshal([]byte(chain), &g); err != nil {
		t.Fatal(err)
	}
	g.CSR()
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
		if got, want := g.CSR().Out(v), want.CSR().Out(v); !slices.Equal(got, want) {
			t.Errorf("CSR().Out(%d) = %v after re-decode, want %v", v, got, want)
		}
		if got, want := g.CSR().In(v), want.CSR().In(v); !slices.Equal(got, want) {
			t.Errorf("CSR().In(%d) = %v after re-decode, want %v", v, got, want)
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
	csrs := make([]*CSR, readers)
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
					csrs[r] = g.CSR()
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
		if layouts[r] != layouts[0] || csrs[r] != csrs[0] || prints[r] != prints[0] {
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
	if got := g.CSR().In(n - 1); len(got) != 1 {
		t.Errorf("CSR after AddEdge: In(%d) = %v, want the new edge", n-1, got)
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
