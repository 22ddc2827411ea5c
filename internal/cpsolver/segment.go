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
// wins, a weight no draw can read is not computed, and a matrix seen before
// (the uniform one included) is drawn from the weights it built then, so the
// partition, every boundary weight a draw reads and the RNG stream are those
// of the plain algorithm, which segment_ref_test.go keeps (DESIGN.md §1.2,
// "What a sample costs", has the arguments).
type Segmenter struct {
	g *graph.Graph
	// chips is the package chip count C (the policy action space);
	// k <= chips is the number of chips actually laid out, bounded by the
	// graph's boundary capacity (the no-skip constraint permits using any
	// prefix of the chips).
	chips int
	k     int
	// lay is the graph's layout, and order and next are its Order and Next
	// (the pair rule): shared with the graph, read-only.
	lay   *graph.Layout
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
	//	ps      N     one chip's prefix sums of calib*log P along the
	//	              layout: ps[q] sums positions <= q
	//	bounds  k-1   the drawn boundary gaps
	//	slots   the boundary weights of the last two matrices; backward
	//	        draws from slots[cur]
	ps     []float64
	bounds []int
	slots  [2]weights
	cur    int
	// hi is the window: hi[j] is the last gap boundary j can occupy in a
	// complete layout, the last g with CapFrom[next[g]] >= k-2-j (the
	// boundaries after j must fit from next[g] on). It is nondecreasing in
	// j, and hi[k-2] = N-2. Only gaps up to hi[j] are computed or read.
	hi [mcm.MaxChips]int32
	// chipCap, when non-nil, is the per-chip static weight bound NewAutoPkg
	// sets on heterogeneous packages: samples whose per-chip weight totals
	// exceed it are rejected and redrawn (the DP's streaming structure
	// cannot carry a knapsack side constraint exactly). A nil bound (the
	// homogeneous default) draws exactly one sample per call, keeping the
	// pre-heterogeneity RNG stream bit-identical.
	chipCap []int64
}

// weights is everything backward reads of one call's DP, (k-1) x (N-1),
// boundary-major: row j < k-2 holds boundary j's weights given boundary j+1,
// alpha[j][g'] - ps[j+1][g'], and the last row the last boundary's,
// alpha[k-2][g] + ps[k-1][N-1] - ps[k-1][g]. Row j's entries past hi[j] are
// never read, and never written: they hold whatever the slot held before.
type weights struct {
	w []float64
	// val is the matrix w was last built from, N x k position-major
	// (val[q*k+c] is P[order[q]][c]; a nil row is stored as the row of ones
	// it stands for: calib*log 1 is +0, the term a nil row adds). It stays
	// nil until a matrix is built in this slot, so Fit and uniform calls
	// never allocate it. term, the memo, holds val's calib*log terms from
	// the first build here that shares an entry with val on; a policy's
	// matrices never do, annealing proposals nearly always.
	val, term []float64
	// fresh reports that w was built from val: a Fit or uniform call writes
	// w and clears it.
	fresh bool
	// uniform reports that w holds the uniform weights: a Fit call or a
	// build writes w and clears it.
	uniform bool
}

// ones stands in for a nil probability row.
var ones = func() (o [mcm.MaxChips]float64) {
	for i := range o {
		o[i] = 1
	}
	return o
}()

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
	sg := &Segmenter{g: g, chips: chips, k: lay.Chips(chips), lay: lay, order: lay.Order, next: lay.Next}
	sg.calib = math.Sqrt(float64(sg.k) / float64(len(sg.order)))
	if sg.calib > 1 {
		sg.calib = 1
	}
	nb, gap := sg.k-1, len(sg.order)-2
	for j := nb - 1; j >= 0; j-- {
		for int(lay.CapFrom[lay.Next[gap]]) < nb-1-j {
			gap--
		}
		sg.hi[j] = int32(gap)
	}
	return sg, nil
}

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
	switch {
	case sg.k == 1:
	case probs == nil:
		sg.uniform()
	default:
		sg.prepare(probs)
	}
	return sg.draw(rng)
}

// uniform makes the current slot hold the uniform weights. Every term is
// calib*log 1 = +0, so the weights depend on nothing but the graph: a slot
// that holds them is drawn from as it stands.
func (sg *Segmenter) uniform() {
	s := sg.slot()
	if s.uniform {
		return
	}
	s.fresh = false
	sg.forward(s.w, func(_ int, ps []float64) { clear(ps) })
	s.uniform = true
}

// Fit projects a (possibly invalid) hint onto the contiguous family,
// mirroring FIX mode: agreements with the hint get overwhelming weight, so
// the sampler keeps y wherever a valid layout allows and repairs the rest
// with random but span-respecting boundaries.
//
// The hint matrix gives a node's hinted chip probability 1 and every other
// chip 1e-9; its two terms are constants, so no matrix is built and no log
// is taken per entry. A hint outside 0..chips-1 agrees with no chip.
func (sg *Segmenter) Fit(y []int, rng *rand.Rand) (partition.Partition, error) {
	if n := len(sg.order); len(y) != n {
		return nil, fmt.Errorf("cpsolver: hint has %d entries for %d nodes", len(y), n)
	}
	if sg.k > 1 {
		s := sg.slot()
		s.fresh, s.uniform = false, false
		agree, disagree := sg.calib*math.Log(1.0), sg.calib*math.Log(1e-9)
		sg.forward(s.w, func(k int, ps []float64) {
			acc := 0.0
			for q := range ps {
				t := disagree
				if y[sg.order[q]] == k {
					t = agree
				}
				acc += t
				ps[q] = acc
			}
		})
	}
	return sg.draw(rng)
}

// draw samples boundaries from the current weights until the layout fits the
// capacity bound, if there is one. The weights do not depend on the draw, so
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

// slot returns the weights backward draws from, sizing them and the DP
// scratch on first use.
func (sg *Segmenter) slot() *weights {
	n := len(sg.order)
	if sg.ps == nil {
		sg.ps, sg.bounds = make([]float64, n), make([]int, sg.k-1)
	}
	s := &sg.slots[sg.cur]
	if s.w == nil {
		s.w = make([]float64, (sg.k-1)*(n-1))
	}
	return s
}

// prepare makes the current slot hold probs's weights. A matrix either slot
// was built from is drawn from as it stands: with T = 2 refinement steps a
// policy's start state comes back every other sample. A matrix sharing no
// entry with the current slot is built in the other one, so that the
// current one survives; anything else (an annealing proposal keeps nine
// entries in ten) is built in place through the term memo.
func (sg *Segmenter) prepare(probs [][]float64) {
	s, other := sg.slot(), &sg.slots[1-sg.cur]
	switch {
	case s.fresh && sg.equal(s.val, probs):
		return
	case other.fresh && sg.equal(other.val, probs):
		sg.cur ^= 1
		return
	case s.val == nil: // the first matrix
	case !sg.shares(s.val, probs):
		sg.cur ^= 1
		s = sg.slot()
	case s.term == nil:
		s.term = make([]float64, len(s.val))
		for i := range s.val {
			s.val[i] = math.NaN() // no term is known yet
		}
	}
	sg.build(s, probs)
}

// row returns node u's probabilities on the laid-out chips, ones for a nil
// row; a row shorter than that panics.
func (sg *Segmenter) row(probs [][]float64, u int) []float64 {
	row := probs[u]
	if row == nil {
		return ones[:sg.k]
	}
	_ = row[sg.k-1]
	return row[:sg.k]
}

// equal reports whether probs matches val entry for entry. Equal
// probabilities have equal terms (±0 both clamp to 1e-12; a NaN equals
// nothing), so equal matrices have equal weights.
func (sg *Segmenter) equal(val []float64, probs [][]float64) bool {
	c := sg.k
	for q, u := range sg.order {
		for k, v := range sg.row(probs, u) {
			if v != val[q*c+k] {
				return false
			}
		}
	}
	return true
}

// shares reports whether some entry of probs matches val.
func (sg *Segmenter) shares(val []float64, probs [][]float64) bool {
	c := sg.k
	for q, u := range sg.order {
		for k, v := range sg.row(probs, u) {
			if v == val[q*c+k] {
				return true
			}
		}
	}
	return false
}

// build reads probs once, in layout order, into s.val, and writes s's
// weights from it. With a term memo, a term is recomputed only where the
// probability differs from the one the entry held (the log is a function of
// the value alone, and NaN equals nothing, so a NaN is always recomputed)
// and a prefix sum reads it: chip c's sums stop at hi[c] for every chip but
// the last, so position q reads the terms of chips lo.. only, lo being the
// number of windows that end before q. Without a memo, each chip's prefix
// sums take their logs from val.
func (sg *Segmenter) build(s *weights, probs [][]float64) {
	c := sg.k
	if s.val == nil {
		s.val = make([]float64, len(sg.order)*c)
	}
	val, term := s.val, s.term
	lo := 0
	for q, u := range sg.order {
		row, dst := sg.row(probs, u), val[q*c:q*c+c]
		if term == nil {
			copy(dst, row)
			continue
		}
		for lo < c-1 && int(sg.hi[lo]) < q {
			lo++
		}
		copy(dst[:lo], row[:lo])
		t := term[q*c : q*c+c]
		for k := lo; k < c; k++ {
			if v := row[k]; v != dst[k] {
				dst[k] = v
				t[k] = sg.logTerm(v)
			}
		}
	}
	if term != nil {
		sg.forward(s.w, func(k int, ps []float64) {
			acc := 0.0
			for q := range ps {
				acc += term[q*c+k]
				ps[q] = acc
			}
		})
	} else {
		sg.forward(s.w, func(k int, ps []float64) {
			acc := 0.0
			for q := range ps {
				acc += sg.logTerm(val[q*c+k])
				ps[q] = acc
			}
		})
	}
	s.fresh, s.uniform = true, false
}

// logTerm is a probability's calib*log(max(P, 1e-12)).
func (sg *Segmenter) logTerm(v float64) float64 {
	if v < 1e-12 {
		v = 1e-12
	}
	return sg.calib * math.Log(v)
}

// forward runs the DP one chip at a time, prefix filling the ps slice it is
// passed with chip k's prefix sums, and writes what backward reads into w
// (see weights).
// alpha[k][g] is the log total weight of layouts of the first k+1 segments
// with boundary k+1 at gap g (gap g = between positions g and g+1;
// boundaries live at gaps 0..n-2): alpha[0][g] = ps[0][g]; alpha[k][g] =
// ps[k][g] + LSE over feasible g' (next[g'] <= g) of (alpha[k-1][g'] -
// ps[k][g']), the terms that are row k-1 of the weights. Row k of w holds
// alpha[k] until chip k+1 turns it into those terms, so alpha takes no
// memory of its own.
//
// Row k and chip k's prefix sums stop at hi[k], all but the last chip's: a
// g' admitted at g <= hi[k] has CapFrom[next[g']] >= CapFrom[g] >= nb-k, so
// g' <= hi[k-1], and backward reads row k-1 only at g' with next[g'] <=
// bounds[k] <= hi[k] (DESIGN.md §1.2).
func (sg *Segmenter) forward(w []float64, prefix func(k int, ps []float64)) {
	n, nb := len(sg.order), sg.k-1
	m := n - 1
	ps, next := sg.ps, sg.next[:m]
	end := int(sg.hi[0]) + 1
	prefix(0, ps[:end])
	copy(w[:end], ps[:end])
	for k := 1; k < nb; k++ {
		end = int(sg.hi[k]) + 1
		prefix(k, ps[:end])
		prev, cur := w[(k-1)*m:k*m], w[k*m:k*m+end]
		// Streaming LSE over g' with next[g'] <= g, exploiting that next
		// is nondecreasing. log(lseSum) is retaken only at a gap that
		// admitted a term: elsewhere lseSum is what it was.
		lseMax := math.Inf(-1)
		lseSum, logSum := 0.0, 0.0
		gp := 0
		for g := range cur {
			admitted := false
			for gp < m && int(next[gp]) <= g {
				x := prev[gp] - ps[gp]
				prev[gp] = x
				if !math.IsInf(x, -1) {
					if x > lseMax {
						lseSum = lseSum*math.Exp(lseMax-x) + 1
						lseMax = x
					} else {
						lseSum += math.Exp(x - lseMax)
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
				cur[g] = ps[g] + lseMax + logSum
			}
		}
	}
	// The last boundary: alpha[nb-1][g] plus the tail segment on chip k-1
	// (positions g+1..n-1).
	prefix(nb, ps)
	last := w[(nb-1)*m:]
	for g, a := range last {
		last[g] = a + ps[n-1] - ps[g]
	}
}

// backward draws one layout from the current weights, last boundary first.
func (sg *Segmenter) backward(rng *rand.Rand) (partition.Partition, error) {
	if sg.k == 1 {
		return sg.emit(nil)
	}
	nb, m := sg.k-1, len(sg.order)-1
	w, bounds, next := sg.slots[sg.cur].w, sg.bounds, sg.next[:m]
	g, err := sampleLogWeights(rng, w[(nb-1)*m:])
	if err != nil {
		return nil, fmt.Errorf("cpsolver: segment DP infeasible: %w", err)
	}
	bounds[nb-1] = g
	// Given boundary k at gap g, boundary k-1 sits at a feasible g'
	// (next[g'] <= g), weighted by row k-1. next is nondecreasing, so the
	// feasible gaps are a prefix, and an infeasible gap would draw nothing:
	// the draw stops at the first one. next[g'] > g', so the drawn gap lies
	// below g and each boundary's prefix is a prefix of the one before it:
	// gp walks down from the previous count, O(N) over the whole draw.
	gp := m
	for k := nb - 1; k >= 1; k-- {
		for gp > 0 && int(next[gp-1]) > bounds[k] {
			gp--
		}
		g, err := sampleLogWeights(rng, w[(k-1)*m:(k-1)*m+gp])
		if err != nil {
			return nil, fmt.Errorf("cpsolver: segment DP backward step failed: %w", err)
		}
		bounds[k-1] = g
	}
	return sg.emit(bounds)
}

// emit materializes the partition from boundary gaps (sorted ascending).
func (sg *Segmenter) emit(bounds []int) (partition.Partition, error) {
	p := partition.Partition(sg.lay.Emit(bounds))
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
