// Package gnn implements the GraphSAGE feature network of the paper's
// policy (Sec. 4.1): node features are encoded with mean-aggregator
// GraphSAGE layers (Hamilton et al., 2017), trained end-to-end with the
// policy head by backpropagation. The default configuration matches the
// paper: 8 layers of width 128.
//
//mcmlint:hotpath
package gnn

import (
	"math"

	"mcmpart/internal/graph"
	"mcmpart/internal/mat"
)

// FeatureDim is the width of the static node-feature vector: a one-hot
// operator kind plus seven scale-free scalar features. Scale-free features
// (log-compressed costs, fractions of graph totals) are what let a policy
// pre-trained on small CNNs transfer to a 2138-node transformer.
const FeatureDim = graph.NumOpKinds + 7

// Features builds the N x FeatureDim static feature matrix of a graph:
// operator one-hot, log-compressed compute/weight/activation costs,
// normalized fan-in/fan-out, depth fraction along the longest path, and
// topological position fraction.
func Features(g *graph.Graph) *mat.Dense {
	n := g.NumNodes()
	x := mat.New(n, FeatureDim)
	depths, err := g.Depths()
	if err != nil {
		panic("gnn: graph must be a DAG: " + err.Error())
	}
	maxDepth := 1
	for _, d := range depths {
		if d > maxDepth {
			maxDepth = d
		}
	}
	lay, _ := g.Layout() // Depths above read the same layout
	maxDeg := 1
	for v := 0; v < n; v++ {
		if d := g.InDegree(v) + g.OutDegree(v); d > maxDeg {
			maxDeg = d
		}
	}
	for v := 0; v < n; v++ {
		node := g.Node(v)
		row := x.Row(v)
		row[int(node.Op)] = 1
		base := graph.NumOpKinds
		row[base+0] = math.Log1p(node.FLOPs) / 30 // ~[0,1] up to 1e13 FLOPs
		row[base+1] = math.Log1p(float64(node.ParamBytes)) / 30
		row[base+2] = math.Log1p(float64(node.OutputBytes)) / 30
		row[base+3] = float64(g.InDegree(v)) / float64(maxDeg)
		row[base+4] = float64(g.OutDegree(v)) / float64(maxDeg)
		row[base+5] = float64(depths[v]) / float64(maxDepth)
		row[base+6] = float64(lay.Pos[v]) / float64(max(1, n-1))
	}
	return x
}

// Adjacency is the CSR neighbor structure used by the mean aggregator:
// undirected neighborhoods with precomputed inverse degrees.
type Adjacency struct {
	offsets []int32
	neigh   []int32
	invDeg  []float64
}

// BuildAdjacency extracts the aggregation structure from a graph.
func BuildAdjacency(g *graph.Graph) *Adjacency {
	n := g.NumNodes()
	deg := make([]int32, n)
	for _, e := range g.Edges() {
		deg[e.From]++
		deg[e.To]++
	}
	a := &Adjacency{
		offsets: make([]int32, n+1),
		neigh:   make([]int32, 2*g.NumEdges()),
		invDeg:  make([]float64, n),
	}
	for v := 0; v < n; v++ {
		a.offsets[v+1] = a.offsets[v] + deg[v]
		if deg[v] > 0 {
			a.invDeg[v] = 1 / float64(deg[v])
		}
	}
	fill := make([]int32, n)
	for _, e := range g.Edges() {
		a.neigh[a.offsets[e.From]+fill[e.From]] = int32(e.To)
		fill[e.From]++
		a.neigh[a.offsets[e.To]+fill[e.To]] = int32(e.From)
		fill[e.To]++
	}
	return a
}

// NumNodes returns the number of nodes in the adjacency.
func (a *Adjacency) NumNodes() int { return len(a.invDeg) }

// aggregate computes out[v] = mean over neighbors u of in[u] (zero for
// isolated nodes). out and in must be N x D and distinct. Output rows are
// independent, so mat.RowBlocks splits large graphs' rows across the worker
// pool with results identical at any worker count.
func (a *Adjacency) aggregate(out, in *mat.Dense) {
	out.Zero()
	mat.RowBlocks(a.NumNodes(), len(a.neigh)*in.Cols, aggregation.rows, aggregation{a, out, in})
}

// aggregation is one aggregate call's operands, handed to each row block.
type aggregation struct {
	a       *Adjacency
	out, in *mat.Dense
}

// rows is aggregate over output rows [lo, hi) of a zeroed out.
func (ag aggregation) rows(_, lo, hi int) {
	a, out, in := ag.a, ag.out, ag.in
	d := in.Cols
	for v := lo; v < hi; v++ {
		ov := out.Data[v*d : (v+1)*d]
		w := a.invDeg[v]
		if w == 0 {
			continue
		}
		for _, u := range a.neigh[a.offsets[v]:a.offsets[v+1]] {
			iu := in.Data[int(u)*d : (int(u)+1)*d]
			for j, x := range iu {
				ov[j] += x
			}
		}
		for j := range ov {
			ov[j] *= w
		}
	}
}

// scatterAdd computes out[u] += sum over v with u in N(v) of in[v]*invDeg(v)
// — the transpose of aggregate, used in backprop. Writes scatter across out
// rows, so this stays serial (an AXPY per neighbor row).
func (a *Adjacency) scatterAdd(out, in *mat.Dense) {
	d := in.Cols
	for v := 0; v < a.NumNodes(); v++ {
		w := a.invDeg[v]
		if w == 0 {
			continue
		}
		iv := in.Data[v*d : (v+1)*d]
		for _, u := range a.neigh[a.offsets[v]:a.offsets[v+1]] {
			mat.Axpy(w, iv, out.Data[int(u)*d:(int(u)+1)*d])
		}
	}
}
