package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds the 5-node example of Figure 2a: one source fanning out to
// two branches that re-join and feed a sink.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	for i := 0; i < 5; i++ {
		g.AddNode(Node{Name: "n", Op: OpMatMul, FLOPs: 10, OutputBytes: 4})
	}
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(0, 2, 4)
	g.MustAddEdge(1, 3, 4)
	g.MustAddEdge(2, 3, 4)
	g.MustAddEdge(3, 4, 4)
	if err := g.Validate(); err != nil {
		t.Fatalf("diamond should validate: %v", err)
	}
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New("g")
	for i := 0; i < 4; i++ {
		if id := g.AddNode(Node{Name: "x"}); id != i {
			t.Fatalf("AddNode returned %d, want %d", id, i)
		}
	}
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New("g")
	a := g.AddNode(Node{})
	b := g.AddNode(Node{})
	tests := []struct {
		name     string
		from, to int
		bytes    int64
		wantErr  bool
	}{
		{"ok", a, b, 8, false},
		{"self loop", a, a, 8, true},
		{"unknown to", a, 99, 8, true},
		{"unknown from", -1, b, 8, true},
		{"negative bytes", b, a, -1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.from, tt.to, tt.bytes)
			if (err != nil) != tt.wantErr {
				t.Fatalf("AddEdge(%d,%d,%d) error = %v, wantErr %v", tt.from, tt.to, tt.bytes, err, tt.wantErr)
			}
		})
	}
	// A duplicate pair is a property of the edge set, not of one edge:
	// AddEdge only appends, and Validate — which every path into the
	// planner runs — is what refuses it.
	t.Run("duplicate", func(t *testing.T) {
		if err := g.Validate(); err != nil {
			t.Fatalf("Validate before the duplicate: %v", err)
		}
		if err := g.AddEdge(a, b, 9); err != nil {
			t.Fatalf("AddEdge of a second (a,b): %v", err)
		}
		err := g.Validate()
		if !errors.Is(err, ErrDuplicateEdge) || !strings.Contains(err.Error(), "(0,1)") {
			t.Fatalf("Validate = %v, want ErrDuplicateEdge naming (0,1)", err)
		}
		// The multigraph is still readable, in insertion order.
		if got := g.OutEdges(a); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("OutEdges(a) = %v, want [0 1]", got)
		}
	})
}

func TestTopoOrderDiamond(t *testing.T) {
	g := diamond(t)
	lay, err := g.Layout()
	if err != nil {
		t.Fatal(err)
	}
	order := lay.Order
	pos := make([]int, g.NumNodes())
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge (%d,%d) violates topo order %v", e.From, e.To, order)
		}
	}
	// Deterministic: smallest ready ID first.
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New("cyclic")
	a := g.AddNode(Node{})
	b := g.AddNode(Node{})
	c := g.AddNode(Node{})
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(b, c, 1)
	g.MustAddEdge(c, a, 1)
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate error = %v, want ErrCycle", err)
	}
	if l, err := g.Layout(); l != nil || !errors.Is(err, ErrCycle) {
		t.Fatalf("Layout = %v, %v, want nil, ErrCycle", l, err)
	}
	if _, err := g.Depths(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Depths error = %v, want ErrCycle", err)
	}
	if got, want := g.Fingerprint(), g.rawFingerprint(); got != want {
		t.Fatalf("cyclic graph fingerprints as %s, want the raw encoding %s", got, want)
	}
	if CanonicalPositions(g) != nil {
		t.Fatal("a cyclic graph has no canonical positions")
	}
}

func TestDepths(t *testing.T) {
	g := diamond(t)
	depth, err := g.Depths()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2, 3}
	for i := range want {
		if depth[i] != want[i] {
			t.Fatalf("depth = %v, want %v", depth, want)
		}
	}
}

func TestSourcesSinksDegrees(t *testing.T) {
	g := diamond(t)
	for v := 0; v < g.NumNodes(); v++ {
		if src := g.InDegree(v) == 0; src != (v == 0) {
			t.Fatalf("node %d is a source: %t, want only node 0", v, src)
		}
		if snk := g.OutDegree(v) == 0; snk != (v == 4) {
			t.Fatalf("node %d is a sink: %t, want only node 4", v, snk)
		}
	}
	if g.InDegree(3) != 2 || g.OutDegree(0) != 2 {
		t.Fatalf("degree mismatch: in(3)=%d out(0)=%d", g.InDegree(3), g.OutDegree(0))
	}
	if got := g.Successors(0); len(got) != 2 {
		t.Fatalf("successors(0) = %v", got)
	}
	if got := g.Predecessors(3); len(got) != 2 {
		t.Fatalf("predecessors(3) = %v", got)
	}
}

func TestTotals(t *testing.T) {
	g := New("g")
	g.AddNode(Node{FLOPs: 5, ParamBytes: 100})
	g.AddNode(Node{FLOPs: 7, ParamBytes: 200})
	if got := g.TotalParamBytes(); got != 300 {
		t.Fatalf("TotalParamBytes = %v, want 300", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.AddNode(Node{Name: "extra"})
	c.MustAddEdge(4, 5, 1)
	if g.NumNodes() == c.NumNodes() || g.NumEdges() == c.NumEdges() {
		t.Fatal("mutating the clone changed the original")
	}
	if g.HasEdge(4, 5) {
		t.Fatal("original gained the clone's edge")
	}
}

// TestIdentical: a clone is identical, and each one-field change — the
// graph's name, a node's name, a FLOPs of -0 against +0, any other node
// field, an edge's bytes, two edges' insertion order — is not.
func TestIdentical(t *testing.T) {
	g := diamond(t)
	if !g.Identical(g.Clone()) {
		t.Fatal("a clone is not identical to its original")
	}
	for name, change := range map[string]func(*Graph){
		"graph name":  func(c *Graph) { c.SetName("other") },
		"node name":   func(c *Graph) { c.nodes[2].Name = "m" },
		"-0 FLOPs":    func(c *Graph) { c.nodes[0].FLOPs = 0; g.nodes[0].FLOPs = math.Copysign(0, -1) },
		"op":          func(c *Graph) { c.nodes[1].Op = OpSoftmax },
		"param bytes": func(c *Graph) { c.nodes[1].ParamBytes++ },
		"out bytes":   func(c *Graph) { c.nodes[4].OutputBytes++ },
		"edge bytes":  func(c *Graph) { c.edges[3].Bytes++ },
		"edge order":  func(c *Graph) { c.edges[1], c.edges[2] = c.edges[2], c.edges[1] },
	} {
		g = diamond(t)
		c := g.Clone()
		change(c)
		if g.Identical(c) || c.Identical(g) {
			t.Errorf("%s: graphs that differ read identical", name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name() != g.Name() || back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", &back, g)
	}
	for i := 0; i < g.NumNodes(); i++ {
		if back.Node(i) != g.Node(i) {
			t.Fatalf("node %d mismatch", i)
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if back.Edge(i) != g.Edge(i) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"cycle", `{"name":"x","nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]}`},
		{"bad ids", `{"name":"x","nodes":[{"id":3}],"edges":[]}`},
		{"dangling edge", `{"name":"x","nodes":[{"id":0}],"edges":[{"from":0,"to":9}]}`},
		{"empty", `{"name":"x","nodes":[],"edges":[]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var g Graph
			if err := json.Unmarshal([]byte(tt.in), &g); err == nil {
				t.Fatalf("Unmarshal(%s) should fail", tt.in)
			}
		})
	}
}

func TestWriteDOT(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, []int{0, 0, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "n0 -> n1", "chip 0", "chip 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	if err := g.WriteDOT(&buf, []int{0}); err == nil {
		t.Fatal("WriteDOT should reject a short partition")
	}
	buf.Reset()
	if err := g.WriteDOT(&buf, nil); err != nil || !strings.Contains(buf.String(), "digraph") {
		t.Fatalf("WriteDOT without partition failed: %v", err)
	}
}

func TestOpKindStringRoundTrip(t *testing.T) {
	// Every kind has its own name, so a name identifies its kind.
	byName := make(map[string]OpKind, NumOpKinds)
	for k := 0; k < NumOpKinds; k++ {
		kind := OpKind(k)
		if prev, dup := byName[kind.String()]; dup || kind.String() == "" {
			t.Fatalf("kinds %d and %d share the name %q", prev, kind, kind)
		}
		byName[kind.String()] = kind
	}
	if s := OpKind(200).String(); !strings.Contains(s, "200") {
		t.Fatalf("unknown kind String = %q", s)
	}
}

// randomDAG builds a random layered DAG for property tests: edges only go
// from lower to higher IDs, so the result is always acyclic.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New("rand")
	for i := 0; i < n; i++ {
		g.AddNode(Node{Name: "n", Op: OpKind(rng.Intn(NumOpKinds)), FLOPs: float64(rng.Intn(100)), OutputBytes: int64(rng.Intn(64))})
	}
	for v := 1; v < n; v++ {
		// Each node gets 1..3 predecessors among earlier nodes.
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			u := rng.Intn(v)
			if !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, int64(rng.Intn(128)))
			}
		}
	}
	return g
}

func TestTopoOrderPropertyRandomDAGs(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 2
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, n)
		lay, err := g.Layout()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i, v := range lay.Order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		// JSON round trip must preserve structure.
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.NumNodes() == g.NumNodes() && back.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
