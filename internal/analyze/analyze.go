// Package analyze is the static-analysis fast path of the partitioner: it
// derives per-node placement domains and sound cost lower bounds from the
// graph and package alone — no per-candidate simulation — and constructs a
// high-quality valid partition in near-linear time. It is how the planner
// reaches 100k-node graphs (TOAST-style principled static analysis, see
// DESIGN.md §11), where driving the per-sample solver + evaluator loop is
// hopeless.
//
// The analysis works over the contiguous segmentation family cpsolver's
// Segmenter established: lay nodes out in topological order and split the
// layout into K contiguous chunks, chunk c on chip c, such that no edge
// span contains two split points. Every such segmentation satisfies all
// three static constraints by construction (monotone chips, prefix usage,
// adjacent cuts), so the fast path never needs a per-candidate validity
// check; the open choices are K and the K-1 boundary gaps, and those are
// resolved with prefix sums and monotone two-pointer/binary-search walks.
//
// Placement domains are represented with cpsolver's Domain bitsets on a
// trail-backed DomainStore: the base analysis applies every K-independent
// necessary condition (weight prefixes, boundary capacity, per-node SRAM
// fit, chip monotonicity), and per-K feasibility is probed by speculative
// tightening under a trail mark that is rolled back afterwards — the same
// propagate-and-backtrack machinery the sample-by-sample solver uses,
// without its O(|V|) per-assignment sweeps.
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
// topological layout, its prefix-sum cost views, the pair-rule boundary
// structure, and the per-position placement domains. Build it once with New
// and reuse it for bounds and plans; an Analysis is read-only after New and
// safe for concurrent use except for Plan (which speculates on the shared
// domain trail).
type Analysis struct {
	g     *graph.Graph
	pkg   *mcm.Package
	n     int
	chips int

	// order, pos, next and capFrom are the graph layout's Order, Pos, Next
	// (the pair rule) and CapFrom: shared with the graph, read-only.
	order   []int
	pos     []int32
	next    []int32
	capFrom []int32

	// prefF[p] / prefW[p] are the FLOPs / weight bytes of positions < p.
	prefF []float64
	prefW []int64
	// gapBytes[g] / gapEdges[g] total the bytes / count of edges whose span
	// contains gap g (gap g separates positions g and g+1). A boundary at
	// gap g cuts exactly those edges.
	gapBytes []int64
	gapEdges []int32

	// bBefore[p] is the maximum number of span-respecting boundaries
	// placeable at gaps < p (capFrom's mirror image).
	bBefore []int32

	// capPrefix[c] is the total SRAM of chips < c; peakPrefix[c] the total
	// peak FLOP rate of chips < c.
	capPrefix  []int64
	peakPrefix []float64
	// hopsAdj[c] is the hop count of the c-1 -> c route (-1 when unroutable;
	// hopsAdj[0] unused).
	hopsAdj []int32

	// doms holds the placement domain of each position (not node ID; use
	// Domain(v) for node-indexed access) under every K-independent
	// necessary condition.
	doms *cpsolver.DomainStore

	// kMin..kMax bound the usable chip-prefix sizes; feasibleK lists the K
	// values that survive per-K domain propagation (empty when the
	// instance is infeasible).
	kMin, kMax int
	feasibleK  []int

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
// bounds are still meaningful) — Plan reports ErrInfeasible, and no
// chip-prefix size survives propagation.
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
	a := &Analysis{
		g: g, pkg: pkg, n: g.NumNodes(), chips: pkg.Chips,
		order: lay.Order, pos: lay.Pos, next: lay.Next, capFrom: lay.CapFrom,
	}
	a.buildPrefixes()
	a.buildBBefore()
	a.buildChipPrefixes()
	a.buildDomains()
	a.probeFeasibleK()
	return a, nil
}

// buildPrefixes fills the position-indexed prefix sums and the per-gap cut
// totals (difference arrays over the edge spans, O(V+E)).
func (a *Analysis) buildPrefixes() {
	n := a.n
	a.prefF = make([]float64, n+1)
	a.prefW = make([]int64, n+1)
	for p, v := range a.order {
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
			pu, pv := a.pos[e.From], a.pos[e.To]
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

// buildBBefore counts the greedy earliest-placement walk (optimal because
// next is nondecreasing).
func (a *Analysis) buildBBefore() {
	n := a.n
	a.bBefore = make([]int32, n)
	count, walk := int32(0), 0
	for p := 0; p < n; p++ {
		for walk < p {
			count++
			walk = int(a.next[walk])
		}
		a.bBefore[p] = count
	}
}

// buildChipPrefixes fills the chip-indexed capacity and peak-rate prefix
// sums.
func (a *Analysis) buildChipPrefixes() {
	a.capPrefix = make([]int64, a.chips+1)
	a.peakPrefix = make([]float64, a.chips+1)
	a.hopsAdj = make([]int32, a.chips)
	for c := 0; c < a.chips; c++ {
		a.capPrefix[c+1] = a.capPrefix[c] + a.pkg.ChipSRAM(c)
		a.peakPrefix[c+1] = a.peakPrefix[c] + a.pkg.ChipFLOPs(c)
		a.hopsAdj[c] = -1
		if c > 0 {
			if h, ok := a.pkg.PathHops(c-1, c); ok {
				a.hopsAdj[c] = int32(h)
			}
		}
	}
}

// buildDomains applies every K-independent necessary condition to the
// per-position domains and computes kMin/kMax. A base wipeout (some node
// fits nowhere) leaves kMax < kMin, i.e. no feasible K.
func (a *Analysis) buildDomains() {
	n, chips := a.n, a.chips
	a.doms = cpsolver.NewDomainStore(n, chips)
	wiped := false
	restrict := func(p int, d cpsolver.Domain) {
		if _, empty := a.doms.Restrict(p, d); empty {
			wiped = true
		}
	}

	// Weight prefixes: positions 0..p live on chips 0..chip(p), so their
	// weights must fit capPrefix[chip(p)+1]; dually for the suffix. Both
	// walks are two-pointer over the monotone prefix sums.
	c := 0
	for p := 0; p < n; p++ {
		for c < chips && a.capPrefix[c+1] < a.prefW[p+1] {
			c++
		}
		if c >= chips {
			// The prefix through p fits no chip prefix at all: wipe p
			// explicitly so the infeasibility is visible in its domain.
			restrict(p, 0)
			continue
		}
		restrict(p, cpsolver.MaskGE(c))
	}
	c = chips - 1
	for p := n - 1; p >= 0; p-- {
		suff := a.prefW[n] - a.prefW[p]
		for c >= 0 && a.capPrefix[chips]-a.capPrefix[c] < suff {
			c--
		}
		if c < 0 {
			restrict(p, 0)
			continue
		}
		restrict(p, cpsolver.MaskLE(c))
	}

	// Boundary capacity: chip(p) equals the number of boundaries at gaps
	// before position p, which bBefore caps.
	for p := 0; p < n; p++ {
		restrict(p, cpsolver.MaskLE(int(a.bBefore[p])))
	}

	// Per-node SRAM fit: a node whose weights exceed a chip's SRAM cannot
	// sit there. Only nodes heavier than the smallest chip need the O(C)
	// mask build.
	minSRAM := a.pkg.MinChipSRAM()
	for p := 0; p < n; p++ {
		params := a.g.Node(a.order[p]).ParamBytes
		if params <= minSRAM {
			continue
		}
		var mask cpsolver.Domain
		for ch := 0; ch < chips; ch++ {
			if a.pkg.ChipSRAM(ch) >= params {
				mask |= cpsolver.Single(ch)
			}
		}
		restrict(p, mask)
	}

	// Greedy chunk fill: for any contiguous layout, chip c's chunk ends no
	// later than the greedy forward fill's (greedy maximizes every chip
	// prefix's reach), so chip(p) >= the greedy fill's chip at p. Unlike
	// the aggregate prefix-weight walk above this respects chunk
	// granularity, closing integrality gaps (e.g. three 8 MiB chips cannot
	// hold eight 3 MiB nodes even though 24 <= 24).
	cG, w := 0, int64(0)
	for p := 0; p < n; p++ {
		nw := a.g.Node(a.order[p]).ParamBytes
		w += nw
		for cG < chips && w > a.pkg.ChipSRAM(cG) {
			cG++
			w = nw
		}
		if cG >= chips {
			restrict(p, 0)
			continue
		}
		restrict(p, cpsolver.MaskGE(cG))
	}

	if wiped {
		a.kMin, a.kMax = 1, 0
		return
	}

	// kMin: every layout uses at least lo(p)+1 chips for any p. kMax: the
	// pair rule admits at most capFrom[0] boundaries.
	a.kMin = 1
	for p := 0; p < n; p++ {
		if lo := a.doms.Domain(p).Min() + 1; lo > a.kMin {
			a.kMin = lo
		}
	}
	a.kMax = chips
	if cap := int(a.capFrom[0]) + 1; cap < a.kMax {
		a.kMax = cap
	}
	if n < a.kMax {
		a.kMax = n
	}
	if a.kMax < a.kMin {
		return
	}

	// Suffix boundary capacity at kMin: the K-1-chip(p) boundaries after
	// position p must fit at gaps >= p; K >= kMin makes this permanent.
	for p := 0; p < n; p++ {
		restrict(p, cpsolver.MaskGE(a.kMin-1-int(a.capFrom[p])))
	}

	// Chip monotonicity of the contiguous family: chip(p) <= chip(p+1) <=
	// chip(p)+1. Interval conditions reach fixpoint in one forward and one
	// backward sweep; per-node SRAM holes may need another round, so sweep
	// until quiescent (bounded: domains only shrink).
	for changed := true; changed && !wiped; {
		changed = false
		for p := 1; p < n; p++ {
			d := a.doms.Domain(p - 1)
			ch, empty := a.doms.Restrict(p, cpsolver.MaskGE(d.Min())&cpsolver.MaskLE(d.Max()+1))
			changed = changed || ch
			wiped = wiped || empty
		}
		for p := n - 2; p >= 0 && !wiped; p-- {
			d := a.doms.Domain(p + 1)
			ch, empty := a.doms.Restrict(p, cpsolver.MaskLE(d.Max())&cpsolver.MaskGE(d.Min()-1))
			changed = changed || ch
			wiped = wiped || empty
		}
	}
	if wiped {
		a.kMin, a.kMax = 1, 0
	}
}

// probeFeasibleK tests each K in [kMin, kMax] by speculative domain
// tightening under a trail mark: restrict every position to chips < K and
// to the K-dependent suffix-capacity floor, re-run the monotone sweeps, and
// roll back. A wipeout proves no exactly-K layout exists; survivors are
// candidates Plan tries to construct (construction can still fail — the
// probe is a necessary condition, not a certificate).
func (a *Analysis) probeFeasibleK() {
	for k := a.kMin; k <= a.kMax; k++ {
		if a.probeK(k) {
			a.feasibleK = append(a.feasibleK, k)
		}
	}
}

func (a *Analysis) probeK(k int) bool {
	n := a.n
	mark := a.doms.Mark()
	defer a.doms.UndoTo(mark)
	if a.prefW[n] > a.capPrefix[k] {
		return false
	}
	wiped := false
	for p := 0; p < n && !wiped; p++ {
		allowed := cpsolver.MaskLE(k-1) & cpsolver.MaskGE(k-1-int(a.capFrom[p]))
		_, wiped = a.doms.Restrict(p, allowed)
	}
	// Backward greedy chunk fill over chips k-1 down to 0: the dual of the
	// base forward fill, anchored at the layout's right end (which only
	// exists per K). chip(p) <= the backward fill's chip at p.
	cB, w := k-1, int64(0)
	for p := n - 1; p >= 0 && !wiped; p-- {
		nw := a.g.Node(a.order[p]).ParamBytes
		w += nw
		for cB >= 0 && w > a.pkg.ChipSRAM(cB) {
			cB--
			w = nw
		}
		if cB < 0 {
			return false
		}
		_, wiped = a.doms.Restrict(p, cpsolver.MaskLE(cB))
	}
	for changed := true; changed && !wiped; {
		changed = false
		for p := 1; p < n && !wiped; p++ {
			d := a.doms.Domain(p - 1)
			ch, empty := a.doms.Restrict(p, cpsolver.MaskGE(d.Min())&cpsolver.MaskLE(d.Max()+1))
			changed, wiped = changed || ch, empty
		}
		for p := n - 2; p >= 0 && !wiped; p-- {
			d := a.doms.Domain(p + 1)
			ch, empty := a.doms.Restrict(p, cpsolver.MaskLE(d.Max())&cpsolver.MaskGE(d.Min()-1))
			changed, wiped = changed || ch, empty
		}
	}
	return !wiped
}

// Chips returns the package chip count C.
func (a *Analysis) Chips() int { return a.chips }

// Domain returns the placement domain of node v under every K-independent
// necessary condition: the set of chips v can occupy in some
// capacity-feasible contiguous layout.
func (a *Analysis) Domain(v int) cpsolver.Domain { return a.doms.Domain(int(a.pos[v])) }

// FixedPlacements returns how many nodes the analysis pinned to a single
// chip (singleton domains) without evaluating a single candidate.
func (a *Analysis) FixedPlacements() int {
	fixed := 0
	for p := 0; p < a.n; p++ {
		if a.doms.Domain(p).Singleton() {
			fixed++
		}
	}
	return fixed
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
