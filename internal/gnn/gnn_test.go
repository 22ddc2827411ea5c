package gnn

import (
	"math"
	"math/rand"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/mat"
	"mcmpart/internal/nn"
	"mcmpart/internal/workload"
)

func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("small")
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: float64(i) * 1e6, OutputBytes: 64})
	}
	g.MustAddEdge(0, 1, 64)
	g.MustAddEdge(0, 2, 64)
	g.MustAddEdge(1, 3, 64)
	g.MustAddEdge(2, 3, 64)
	g.MustAddEdge(3, 4, 64)
	return g
}

func TestFeaturesShapeAndRange(t *testing.T) {
	g := smallGraph(t)
	x := Features(g)
	if x.Rows != 5 || x.Cols != FeatureDim {
		t.Fatalf("features are %dx%d, want 5x%d", x.Rows, x.Cols, FeatureDim)
	}
	for i, v := range x.Data {
		if math.IsNaN(v) || v < 0 || v > 1.0001 {
			t.Fatalf("feature %d out of range: %v", i, v)
		}
	}
	// One-hot op present exactly once per row.
	for v := 0; v < 5; v++ {
		var ones int
		for k := 0; k < graph.NumOpKinds; k++ {
			if x.At(v, k) == 1 {
				ones++
			}
		}
		if ones != 1 {
			t.Fatalf("node %d has %d op one-hots", v, ones)
		}
	}
	// Position fraction increases along the chain 0 -> 4.
	posCol := graph.NumOpKinds + 6
	if x.At(0, posCol) != 0 || x.At(4, posCol) != 1 {
		t.Fatalf("position features wrong: %v vs %v", x.At(0, posCol), x.At(4, posCol))
	}
}

func TestAdjacencyAggregate(t *testing.T) {
	g := smallGraph(t)
	adj := BuildAdjacency(g)
	in := mat.New(5, 1)
	for i := 0; i < 5; i++ {
		in.Set(i, 0, float64(i+1))
	}
	out := mat.New(5, 1)
	adj.aggregate(out, in)
	// Node 0 neighbors: 1, 2 -> mean (2+3)/2 = 2.5.
	if out.At(0, 0) != 2.5 {
		t.Fatalf("aggregate(0) = %v, want 2.5", out.At(0, 0))
	}
	// Node 3 neighbors: 1, 2, 4 -> mean (2+3+5)/3.
	if math.Abs(out.At(3, 0)-10.0/3) > 1e-12 {
		t.Fatalf("aggregate(3) = %v, want 10/3", out.At(3, 0))
	}
}

func TestAggregateScatterAreTransposes(t *testing.T) {
	// <A x, y> must equal <x, Aᵀ y> for random vectors.
	g := workload.MLP(workload.MLPConfig{Name: "m", Layers: 3, Input: 8, Hidden: 8, Output: 4})
	adj := BuildAdjacency(g)
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(1))
	x := mat.New(n, 2)
	y := mat.New(n, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	ax := mat.New(n, 2)
	adj.aggregate(ax, x)
	aty := mat.New(n, 2)
	adj.scatterAdd(aty, y)
	var lhs, rhs float64
	for i := range ax.Data {
		lhs += ax.Data[i] * y.Data[i]
		rhs += x.Data[i] * aty.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-10 {
		t.Fatalf("<Ax,y>=%v but <x,Aᵀy>=%v", lhs, rhs)
	}
}

// TestSAGEGradientCheck validates the full backward pass against finite
// differences of a scalar loss (sum of embeddings).
func TestSAGEGradientCheck(t *testing.T) {
	g := smallGraph(t)
	adj := BuildAdjacency(g)
	x := Features(g)
	rng := rand.New(rand.NewSource(2))
	s := NewSAGE(FeatureDim, 6, 2, rng)

	loss := func() float64 {
		h := s.Forward(adj, x)
		var sum float64
		for _, v := range h.Data {
			sum += v * v
		}
		return 0.5 * sum
	}
	h := s.Forward(adj, x)
	dOut := h.Clone()
	nn.ZeroGrads(s.Params())
	s.Backward(dOut)

	const eps = 1e-6
	for _, p := range s.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := loss()
			p.Value.Data[i] = orig - eps
			down := loss()
			p.Value.Data[i] = orig
			fd := (up - down) / (2 * eps)
			got := p.Grad.Data[i]
			if math.Abs(fd-got) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: finite diff %v vs analytic %v", p.Name, i, fd, got)
			}
		}
	}
}

func TestSAGEHandlesVaryingGraphSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSAGE(FeatureDim, 8, 2, rng)
	for _, gg := range []*graph.Graph{
		smallGraph(t),
		workload.MLP(workload.MLPConfig{Name: "m", Layers: 4, Input: 8, Hidden: 8, Output: 4}),
		smallGraph(t),
	} {
		h := s.Forward(BuildAdjacency(gg), Features(gg))
		if h.Rows != gg.NumNodes() || h.Cols != 8 {
			t.Fatalf("embedding shape %dx%d for %d nodes", h.Rows, h.Cols, gg.NumNodes())
		}
	}
}

func TestSAGEDeterministic(t *testing.T) {
	g := smallGraph(t)
	adj := BuildAdjacency(g)
	x := Features(g)
	s := NewSAGE(FeatureDim, 8, 3, rand.New(rand.NewSource(4)))
	a := s.Forward(adj, x).Clone()
	b := s.Forward(adj, x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Forward should be deterministic")
		}
	}
}

// TestSAGEForwardBackwardAllocs pins the encoder's owned scratch: once the
// record and the backprop buffers are sized, a Forward+Backward pair
// allocates nothing (it was 25 allocations, three of them N x Hidden
// matrices, when Backward built its temporaries per call). The graph is small enough
// that every kernel takes its serial path on any host.
func TestSAGEForwardBackwardAllocs(t *testing.T) {
	g := workload.MLP(workload.MLPConfig{Name: "m", Layers: 6, Input: 64, Hidden: 64, Output: 16})
	adj, x := BuildAdjacency(g), Features(g)
	s := NewSAGE(FeatureDim, 16, 3, rand.New(rand.NewSource(5)))
	dOut := mat.New(g.NumNodes(), 16)
	for i := range dOut.Data {
		dOut.Data[i] = 1e-3
	}
	pair := func() { s.Forward(adj, x); s.Backward(dOut) }
	pair() // size the scratch
	if allocs := testing.AllocsPerRun(20, pair); allocs > 0 {
		t.Fatalf("Forward+Backward allocates %v times per pair in steady state, want 0", allocs)
	}
}
