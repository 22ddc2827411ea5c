// Package analyze is the static-analysis fast path of the partitioner: it
// derives sound cost lower bounds from the graph and package alone — no
// per-candidate simulation — and constructs a high-quality valid partition
// in near-linear time. It is how the planner reaches 100k-node graphs
// (TOAST-style principled static analysis, see DESIGN.md §11), where
// driving the per-sample solver + evaluator loop is hopeless.
//
// The analysis works over the contiguous segmentation family cpsolver's
// Segmenter established: lay nodes out in topological order and split the
// layout into K contiguous chunks, chunk c on chip c, such that no edge
// span contains two split points. Every such segmentation satisfies all
// three static constraints by construction (monotone chips, prefix usage,
// adjacent cuts), so the fast path never needs a per-candidate validity
// check; the open choices are K and the K-1 boundary gaps, and those are
// resolved with prefix sums and monotone two-pointer/binary-search walks.
// Whether a K admits a layout at all is decided by building one: the
// construction refuses a K whose chunks cannot fit their chips.
//
//mcmlint:deterministic
//mcmlint:hotpath
package analyze

import (
	"fmt"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
)

// ErrInfeasible reports that no capacity-feasible contiguous layout of the
// graph on the package exists (the total weight footprint exceeds every
// usable chip prefix, or a single node fits no chip). It wraps
// cpsolver.ErrInfeasible so callers can errors.Is against either package.
var ErrInfeasible = fmt.Errorf("analyze: no capacity-feasible layout: %w", cpsolver.ErrInfeasible)

// Analysis is the static analysis of one (graph, package) pair: the
// topological layout, its prefix-sum cost views and the pair-rule boundary
// structure. Build it once with New and reuse it for bounds and plans; an
// Analysis is read-only after New and safe for concurrent use.
type Analysis struct {
	g     *graph.Graph
	pkg   *mcm.Package
	n     int
	chips int

	// lay is the graph's layout: shared with the graph, read-only.
	lay *graph.Layout

	// prefF[p] / prefW[p] are the FLOPs / weight bytes of positions < p.
	prefF []float64
	prefW []int64
	// gapBytes[g] / gapEdges[g] total the bytes / count of edges whose span
	// contains gap g (gap g separates positions g and g+1). A boundary at
	// gap g cuts exactly those edges.
	gapBytes []int64
	gapEdges []int32

	// peakPrefix[c] is the total peak FLOP rate of chips < c.
	peakPrefix []float64
	// hopsAdj[c] is the hop count of the c-1 -> c route (-1 when unroutable;
	// hopsAdj[0] unused).
	hopsAdj []int32

	totalFLOPs   float64
	totalParams  int64
	maxNodeFLOPs float64
	// minEdgePrice is the cheapest single-hop transfer any edge can cost
	// (+Inf when the graph has no edges); connected reports weak
	// connectivity. Together they decide the forced-transfer bound term.
	minEdgePrice float64
	connected    bool
}

// New runs the static analysis. It errors on cyclic graphs and invalid
// packages; an instance with no feasible layout is NOT an error here (the
// bounds are still meaningful) — Plan reports ErrInfeasible.
func New(g *graph.Graph, pkg *mcm.Package) (*Analysis, error) {
	if g == nil {
		return nil, fmt.Errorf("analyze: nil graph")
	}
	if pkg == nil {
		return nil, fmt.Errorf("analyze: nil package")
	}
	if err := pkg.Validate(); err != nil {
		return nil, err
	}
	lay, err := g.Layout()
	if err != nil {
		return nil, err
	}
	a := &Analysis{g: g, pkg: pkg, n: g.NumNodes(), chips: pkg.Chips, lay: lay}
	a.buildPrefixes()
	a.buildChipPrefixes()
	return a, nil
}

// buildPrefixes fills the position-indexed prefix sums and the per-gap cut
// totals (difference arrays over the edge spans, O(V+E)).
func (a *Analysis) buildPrefixes() {
	n := a.n
	a.prefF = make([]float64, n+1)
	a.prefW = make([]int64, n+1)
	for p, v := range a.lay.Order {
		nd := a.g.Node(v)
		a.prefF[p+1] = a.prefF[p] + nd.FLOPs
		a.prefW[p+1] = a.prefW[p] + nd.ParamBytes
		if nd.FLOPs > a.maxNodeFLOPs {
			a.maxNodeFLOPs = nd.FLOPs
		}
	}
	a.totalFLOPs = a.prefF[n]
	a.totalParams = a.prefW[n]
	if n > 1 {
		a.gapBytes = make([]int64, n-1)
		a.gapEdges = make([]int32, n-1)
	}
	// Edge (u,v) spans gaps pos[u] .. pos[v]-1; accumulate via difference
	// arrays and one prefix pass. Also fold the connectivity and
	// cheapest-transfer facts the bound needs, so New walks edges once.
	dsu := newDSU(n)
	a.minEdgePrice = inf()
	for _, e := range a.g.Edges() {
		// Zero-byte edges constrain the layout (pair rule) but are priced at
		// zero by HopTransferTime, so they stay out of the cut totals.
		if e.Bytes > 0 {
			pu, pv := a.lay.Pos[e.From], a.lay.Pos[e.To]
			a.gapBytes[pu] += e.Bytes
			a.gapEdges[pu]++
			if int(pv) < n-1 {
				a.gapBytes[pv] -= e.Bytes
				a.gapEdges[pv]--
			}
		}
		dsu.union(e.From, e.To)
		if price := a.pkg.HopTransferTime(1, e.Bytes); price < a.minEdgePrice {
			a.minEdgePrice = price
		}
	}
	for g := 1; g < n-1; g++ {
		a.gapBytes[g] += a.gapBytes[g-1]
		a.gapEdges[g] += a.gapEdges[g-1]
	}
	a.connected = dsu.components == 1
}

// buildChipPrefixes fills the chip-indexed peak-rate prefix sums and the
// adjacent-chip hop counts.
func (a *Analysis) buildChipPrefixes() {
	a.peakPrefix = make([]float64, a.chips+1)
	a.hopsAdj = make([]int32, a.chips)
	for c := 0; c < a.chips; c++ {
		a.peakPrefix[c+1] = a.peakPrefix[c] + a.pkg.ChipFLOPs(c)
		a.hopsAdj[c] = -1
		if c > 0 {
			if h, ok := a.pkg.PathHops(c-1, c); ok {
				a.hopsAdj[c] = int32(h)
			}
		}
	}
}

// dsu is a plain union-find over node IDs for the weak-connectivity fact.
type dsu struct {
	parent     []int32
	components int
}

func newDSU(n int) *dsu {
	d := &dsu{parent: make([]int32, n), components: n}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

func (d *dsu) find(x int) int32 {
	for d.parent[x] != int32(x) {
		d.parent[x] = d.parent[d.parent[x]]
		x = int(d.parent[x])
	}
	return int32(x)
}

func (d *dsu) union(x, y int) {
	rx, ry := d.find(x), d.find(y)
	if rx != ry {
		d.parent[rx] = ry
		d.components--
	}
}
