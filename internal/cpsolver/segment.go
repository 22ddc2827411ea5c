package cpsolver

import (
	"fmt"
	"math"
	"math/rand"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
)

// Segmenter generates valid partitions of chain-dominated graphs by exact
// dynamic programming over the contiguous family: lay the nodes out in
// topological order and choose C-1 boundary gaps such that no edge span
// contains two boundaries. Every such segmentation satisfies all three
// static constraints (monotone chips, prefix usage, and all cut edges
// adjacent, so the chip quotient graph is a path). For graphs whose
// dependence structure is a spine with local side nodes — BERT above all —
// the converse also holds up to side-node jitter, so the family covers
// essentially the whole valid space.
//
// The DP samples a segmentation with probability proportional to
// prod_u P[u][f(u)] in O(N*C) time: forward pass with streaming
// log-sum-exp, backward boundary-by-boundary sampling. With uniform P this
// is an exact uniform sample over the family — the diversity the paper's
// Random-search baseline relies on, which sequential per-node sampling
// (Algorithm 1) cannot deliver at production scale without CP-SAT's clause
// learning (see DESIGN.md for the deviation note).
//
// The sampler is exact, and so is every shortcut it takes: a logarithm is
// skipped only where its result is already known or cannot change which gap
// wins, so the partition, both tables and the RNG stream are those of the
// plain algorithm, which segment_ref_test.go keeps (DESIGN.md §1.2, "What a
// sample costs", has the arguments).
type Segmenter struct {
	g *graph.Graph
	// chips is the package chip count C (the policy action space);
	// k <= chips is the number of chips actually laid out, bounded by the
	// graph's boundary capacity (the no-skip constraint permits using any
	// prefix of the chips).
	chips int
	k     int
	// order and next are the graph layout's Order and Next (the pair
	// rule): shared with the graph, read-only.
	order []int
	next  []int32
	// calib tempers per-node log-likelihoods to a per-segment average:
	// without it, thousands of independent per-node factors accumulate
	// into enormous segment-level log-ratios, so even the mild biases of
	// an untrained policy would pin every boundary and emit wildly
	// imbalanced layouts. Scaling by sqrt(k/N), capped at 1, makes a
	// segment's weight the mean per-node preference: negligible for a
	// near-uniform policy (the counting prior dominates, samples stay
	// balanced and diverse), decisive for a confident one (mean log-ratios
	// survive intact).
	calib float64
	// Scratch the segmenter owns, sized on first use and reused by every
	// later call, so a steady-state Sample or Fit allocates only the
	// partition it returns. A Segmenter is therefore not safe for
	// concurrent use; parallel callers use replicas.
	//
	//	ps      k x N      per-chip prefix sums of calib*log P along the
	//	                   layout, chip-major: ps[c*N+q] sums positions <= q
	//	alpha   (k-1)x(N-1) the forward table, boundary-major
	//	w       N-1        the weights of the boundary being drawn
	//	bounds  k-1        the drawn boundary gaps
	//	memoVal, memoTerm  N x k each, position-major: the probability last
	//	                   seen at (position, chip) and its calib*log term.
	//	                   Allocated by the first Sample with a non-nil
	//	                   matrix, never by Fit or uniform sampling.
	ps, alpha, w      []float64
	bounds            []int
	memoVal, memoTerm []float64
	// chipCap, when non-nil, is the per-chip static weight bound of
	// Options.ChipCapacityBytes: samples whose per-chip weight totals
	// exceed it are rejected and redrawn (the DP's streaming structure
	// cannot carry a knapsack side constraint exactly). A nil bound (the
	// homogeneous default) draws exactly one sample per call, keeping the
	// pre-heterogeneity RNG stream bit-identical.
	chipCap []int64
}

// segmentCapacityRetries bounds redraws before a capacity-constrained
// sample gives up with ErrInfeasible.
const segmentCapacityRetries = 64

// NewSegmenter prepares a segmenter for the graph on the given chip count.
// When the graph admits fewer boundaries than chips-1, layouts use the
// longest feasible chip prefix instead (Eq. 3 permits any prefix).
func NewSegmenter(g *graph.Graph, chips int) (*Segmenter, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if chips <= 0 || chips > mcm.MaxChips {
		return nil, fmt.Errorf("cpsolver: chip count %d out of range 1..%d", chips, mcm.MaxChips)
	}
	lay, err := g.Layout()
	if err != nil {
		return nil, err
	}
	sg := &Segmenter{g: g, chips: chips, k: chips, order: lay.Order, next: lay.Next}
	if capacity := int(lay.CapFrom[0]); capacity < chips-1 {
		sg.k = capacity + 1
	}
	sg.calib = math.Sqrt(float64(sg.k) / float64(len(sg.order)))
	if sg.calib > 1 {
		sg.calib = 1
	}
	return sg, nil
}

// LayoutChips returns the number of chips layouts actually use, which is
// less than Chips when the graph's boundary capacity cannot host them all.
func (sg *Segmenter) LayoutChips() int { return sg.k }

// Chips returns the chip count C.
func (sg *Segmenter) Chips() int { return sg.chips }

// Sample draws a contiguous partition with probability proportional to
// prod_u probs[u][f(u)]. probs may be nil (uniform over the family); it is
// read during the call and not retained. Under a per-chip capacity bound it
// redraws until the sample fits (rejection keeps the distribution exact,
// conditioned on feasibility).
func (sg *Segmenter) Sample(probs [][]float64, rng *rand.Rand) (partition.Partition, error) {
	if n := len(sg.order); probs != nil && len(probs) != n {
		return nil, fmt.Errorf("cpsolver: probs has %d rows for %d nodes", len(probs), n)
	}
	if sg.k > 1 {
		sg.prefixFromProbs(probs)
		sg.forward()
	}
	return sg.draw(rng)
}

// Fit projects a (possibly invalid) hint onto the contiguous family,
// mirroring FIX mode: agreements with the hint get overwhelming weight, so
// the sampler keeps y wherever a valid layout allows and repairs the rest
// with random but span-respecting boundaries.
func (sg *Segmenter) Fit(y []int, rng *rand.Rand) (partition.Partition, error) {
	if n := len(sg.order); len(y) != n {
		return nil, fmt.Errorf("cpsolver: hint has %d entries for %d nodes", len(y), n)
	}
	if sg.k > 1 {
		sg.prefixFromHint(y)
		sg.forward()
	}
	return sg.draw(rng)
}

// draw samples boundaries from the forward table until the layout fits the
// capacity bound, if there is one. The table does not depend on the draw, so
// a redraw repeats only the backward pass.
func (sg *Segmenter) draw(rng *rand.Rand) (partition.Partition, error) {
	p, err := sg.backward(rng)
	if err != nil || sg.chipCap == nil {
		return p, err
	}
	for attempt := 0; !sg.fitsCapacity(p); attempt++ {
		if attempt >= segmentCapacityRetries {
			return nil, fmt.Errorf("cpsolver: no capacity-feasible segmentation in %d draws: %w",
				segmentCapacityRetries, ErrInfeasible)
		}
		if p, err = sg.backward(rng); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// fitsCapacity reports whether each chip's total weight footprint under p
// stays within the per-chip capacity bound.
func (sg *Segmenter) fitsCapacity(p partition.Partition) bool {
	var used [mcm.MaxChips]int64
	for v, c := range p {
		used[c] += sg.g.Node(v).ParamBytes
		if used[c] > sg.chipCap[c] {
			return false
		}
	}
	return true
}

// tables returns the prefix-sum table, sizing the DP scratch on first use.
func (sg *Segmenter) tables() []float64 {
	if sg.ps == nil {
		n, c := len(sg.order), sg.k
		flat := make([]float64, c*n+(c-1)*(n-1)+(n-1))
		sg.ps, flat = flat[:c*n], flat[c*n:]
		sg.alpha, sg.w = flat[:(c-1)*(n-1)], flat[(c-1)*(n-1):]
		sg.bounds = make([]int, c-1)
	}
	return sg.ps
}

// prefixFromProbs fills ps from a probability matrix: ps[c][q] is the sum
// over positions p <= q of calib*log(max(P[order[p]][c], 1e-12)), and a nil
// row is uniform (log 1 — only relative weights matter). Positions run in
// the outer loop so a row is read once; each chip still adds its terms in
// position order. A term is recomputed only when the probability differs
// from the one this entry held on the previous call (the log is a function
// of the value alone, and NaN equals nothing, so a NaN is always recomputed):
// annealing re-randomizes a twentieth of the rows per proposal, so nine
// entries in ten keep their term; a policy's matrix changes everywhere and
// none do.
func (sg *Segmenter) prefixFromProbs(probs [][]float64) {
	n, c := len(sg.order), sg.k
	ps := sg.tables()
	if probs == nil {
		clear(ps) // every term is calib*0
		return
	}
	if sg.memoVal == nil {
		memo := make([]float64, 2*n*c)
		sg.memoVal, sg.memoTerm = memo[:n*c], memo[n*c:]
		for i := range sg.memoVal {
			sg.memoVal[i] = math.NaN()
		}
	}
	var acc [mcm.MaxChips]float64
	for q, u := range sg.order {
		row := probs[u]
		if row == nil {
			for k := 0; k < c; k++ {
				acc[k] += sg.calib * 0 // calib*log 1, added as every term is
				ps[k*n+q] = acc[k]
			}
			continue
		}
		_ = row[c-1]
		val, term := sg.memoVal[q*c:q*c+c], sg.memoTerm[q*c:q*c+c]
		for k := range val {
			v := row[k]
			if v != val[k] {
				val[k] = v
				if v < 1e-12 {
					v = 1e-12
				}
				term[k] = sg.calib * math.Log(v)
			}
			acc[k] += term[k]
			ps[k*n+q] = acc[k]
		}
	}
}

// prefixFromHint fills ps as prefixFromProbs would from the matrix that
// gives a node's hinted chip probability 1 and every other chip 1e-9: the
// two terms are constants, so no matrix is built and no log is taken per
// entry. A hint outside 0..chips-1 agrees with no chip.
func (sg *Segmenter) prefixFromHint(y []int) {
	n, c := len(sg.order), sg.k
	ps := sg.tables()
	agree, disagree := sg.calib*math.Log(1.0), sg.calib*math.Log(1e-9)
	var acc [mcm.MaxChips]float64
	for q, u := range sg.order {
		yu := y[u]
		for k := 0; k < c; k++ {
			t := disagree
			if k == yu {
				t = agree
			}
			acc[k] += t
			ps[k*n+q] = acc[k]
		}
	}
}

// forward fills alpha from ps: alpha[k][g] is the log total weight of
// layouts of the first k+1 segments with boundary k+1 at gap g (gap g =
// between positions g and g+1; boundaries live at gaps 0..n-2).
// alpha[0][g] = ps[0][g]; alpha[k][g] = ps[k][g] + LSE over feasible g'
// (next[g'] <= g) of (alpha[k-1][g'] - ps[k][g']).
func (sg *Segmenter) forward() {
	n, nb := len(sg.order), sg.k-1
	m := n - 1
	ps, alpha, next := sg.ps, sg.alpha, sg.next[:m]
	copy(alpha[:m], ps[:m])
	for k := 1; k < nb; k++ {
		psk, prev, cur := ps[k*n:k*n+m], alpha[(k-1)*m:k*m], alpha[k*m:(k+1)*m]
		// Streaming LSE over g' with next[g'] <= g, exploiting that next
		// is nondecreasing. log(lseSum) is retaken only at a gap that
		// admitted a term: elsewhere lseSum is what it was.
		lseMax := math.Inf(-1)
		lseSum, logSum := 0.0, 0.0
		gp := 0
		for g := 0; g < m; g++ {
			admitted := false
			for gp < m && int(next[gp]) <= g {
				w := prev[gp] - psk[gp]
				if !math.IsInf(w, -1) {
					if w > lseMax {
						lseSum = lseSum*math.Exp(lseMax-w) + 1
						lseMax = w
					} else {
						lseSum += math.Exp(w - lseMax)
					}
					admitted = true
				}
				gp++
			}
			if admitted {
				logSum = math.Log(lseSum)
			}
			if lseSum == 0 {
				cur[g] = math.Inf(-1)
			} else {
				cur[g] = psk[g] + lseMax + logSum
			}
		}
	}
}

// backward draws one layout from the forward table, last boundary first.
func (sg *Segmenter) backward(rng *rand.Rand) (partition.Partition, error) {
	if sg.k == 1 {
		return sg.emit(nil)
	}
	n, c := len(sg.order), sg.k
	nb, m := c-1, n-1
	ps, alpha, w, bounds, next := sg.ps, sg.alpha, sg.w, sg.bounds, sg.next[:m]
	// The last boundary: weight = alpha[nb-1][g] + tail segment on chip
	// c-1 (positions g+1..n-1).
	last, tail := alpha[(nb-1)*m:nb*m], ps[(c-1)*n:c*n]
	for g := range last {
		w[g] = last[g] + tail[n-1] - tail[g]
	}
	g, err := sampleLogWeights(rng, w)
	if err != nil {
		return nil, fmt.Errorf("cpsolver: segment DP infeasible: %w", err)
	}
	bounds[nb-1] = g
	// Given boundary k at gap g, boundary k-1 sits at a feasible g'
	// (next[g'] <= g) with weight alpha[k-1][g'] - ps[k][g']. next is
	// nondecreasing, so the feasible gaps are a prefix, and an infeasible
	// gap would draw nothing: the weights stop at the first one.
	for k := nb - 1; k >= 1; k-- {
		psk, prev := ps[k*n:k*n+m], alpha[(k-1)*m:k*m]
		gp := 0
		for ; gp < m && int(next[gp]) <= bounds[k]; gp++ {
			w[gp] = prev[gp] - psk[gp]
		}
		g, err := sampleLogWeights(rng, w[:gp])
		if err != nil {
			return nil, fmt.Errorf("cpsolver: segment DP backward step failed: %w", err)
		}
		bounds[k-1] = g
	}
	return sg.emit(bounds)
}

// emit materializes the partition from boundary gaps (sorted ascending).
func (sg *Segmenter) emit(bounds []int) (partition.Partition, error) {
	p := make(partition.Partition, len(sg.order))
	chip := 0
	bi := 0
	for pos, v := range sg.order {
		p[v] = chip
		for bi < len(bounds) && bounds[bi] == pos {
			chip++
			bi++
		}
	}
	if err := p.Validate(sg.g, sg.chips); err != nil {
		return nil, fmt.Errorf("cpsolver: internal error: segmenter emitted invalid partition: %w", err)
	}
	return p, nil
}

// gumbelUB[b] bounds the Gumbel noise -log(-log u) from above for every u in
// bucket b = [b/gumbelBuckets, (b+1)/gumbelBuckets): the noise increases with
// u, so its value at the bucket's upper edge bounds the bucket, and
// gumbelMargin covers the difference between that real number and anything
// the two math.Log calls can return (each is within an ulp, which after the
// outer log is under 1e-14 absolute for every u rand.Float64 produces). The
// last bucket, where the noise is unbounded, is +Inf: always compute.
const (
	gumbelBuckets = 256
	gumbelMargin  = 1e-9
)

var gumbelUB = func() (ub [gumbelBuckets]float64) {
	for b := range ub {
		ub[b] = -math.Log(-math.Log(float64(b+1)/gumbelBuckets)) + gumbelMargin
	}
	ub[gumbelBuckets-1] = math.Inf(1)
	return ub
}()

// sampleLogWeights draws an index in [0,len(w)) with probability
// proportional to exp(w[i]), streaming in one pass (weighted reservoir via
// the Gumbel trick). It allocates nothing; callers reuse the weight slice.
//
// Every weight above -Inf consumes one rng.Float64(), in order; the two logs
// that turn it into noise are taken only when the bucket bound says the key
// could exceed the best so far. Rounding is monotone, so w + bound >= the
// key the logs would give, to the bit: a draw that fails the test would have
// lost, and the winner is the one the unconditional loop picks.
func sampleLogWeights(rng *rand.Rand, w []float64) (int, error) {
	best := -1
	bestKey := math.Inf(-1)
	for i, wi := range w {
		if math.IsInf(wi, -1) {
			continue
		}
		u := rng.Float64()
		if !(wi+gumbelUB[int(u*gumbelBuckets)] > bestKey) {
			continue // NaN weights land here too: their key beats nothing
		}
		// Gumbel-max: argmax of w(i) + Gumbel noise is a categorical
		// sample from softmax(w).
		key := wi - math.Log(-math.Log(u))
		if key > bestKey {
			bestKey = key
			best = i
		}
	}
	if best < 0 {
		return 0, ErrInfeasible
	}
	return best, nil
}
