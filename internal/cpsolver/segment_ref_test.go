package cpsolver

import (
	"fmt"
	"math"
	"math/rand"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
)

// Everything below the constructor is the segment sampler as it stood on the
// commit before it learned to skip transcendentals (1f86993), kept verbatim
// as the reference the new code must equal — partition, the boundary weights
// its prefix sums and forward table give, and RNG state, call for call
// (TestSegmenterMatchesReference, FuzzSegmenterSequence,
// FuzzSampleLogWeights). Only names changed (ref prefix); to check:
//
//	git show 1f86993:internal/cpsolver/segment.go | sed -n '30,62p;95,330p' | sed \
//	  -e 's/\bSegmenter\b/refSegmenter/g' -e 's/\blogProb\b/refLogProb/g' \
//	  -e 's/\bsampleOnce\b/refSampleOnce/g' -e 's/\bsampleLogWeights\b/refSampleLogWeights/g' \
//	  -e 's/) Sample(/) refSample(/; s/sg\.Sample(/sg.refSample(/' -e 's/) Fit(/) refFit(/' \
//	  -e 's/\bfitsCapacity\b/refFitsCapacity/g' -e 's/\bemit\b/refEmit/g' |
//	  diff - <(sed -n '/^type refSegmenter struct/,$p' internal/cpsolver/segment_ref_test.go)
//
//	refSegmenter         Segmenter         internal/cpsolver/segment.go:30-61
//	refLogProb           logProb           internal/cpsolver/segment.go:95-106
//	refSample            Sample            internal/cpsolver/segment.go:108-127
//	refFitsCapacity      fitsCapacity      internal/cpsolver/segment.go:129-140
//	refSampleOnce        sampleOnce        internal/cpsolver/segment.go:142-259
//	refFit               Fit               internal/cpsolver/segment.go:261-288
//	refEmit              emit              internal/cpsolver/segment.go:290-306
//	refSampleLogWeights  sampleLogWeights  internal/cpsolver/segment.go:308-330

// newRefSegmenter mirrors sg: same graph, chip counts, layout and capacity
// bound, its own scratch.
func newRefSegmenter(sg *Segmenter) *refSegmenter {
	return &refSegmenter{g: sg.g, chips: sg.chips, k: sg.k, order: sg.order, next: sg.next, chipCap: sg.chipCap}
}

type refSegmenter struct {
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
	// Per-call scratch, lazily sized and reused across samples so the hot
	// sampling loop stops allocating (a BERT-scale alpha table alone is
	// ~600 KB per call): logPS holds per-chip prefix sums of log P, alpha
	// the forward-DP table, boundsBuf the sampled boundary gaps, and
	// fitProbs/fitFlat the hint matrix Fit builds. A refSegmenter is therefore
	// not safe for concurrent use; parallel callers use replicas.
	logPS     [][]float64
	alpha     [][]float64
	boundsBuf []int
	wScratch  []float64
	fitProbs  [][]float64
	fitFlat   []float64
	// chipCap, when non-nil, is the per-chip static weight bound of
	// Options.ChipCapacityBytes: samples whose per-chip weight totals
	// exceed it are rejected and redrawn (the DP's streaming structure
	// cannot carry a knapsack side constraint exactly). A nil bound (the
	// homogeneous default) draws exactly one sample per call, keeping the
	// pre-heterogeneity RNG stream bit-identical.
	chipCap []int64
}

// refLogProb returns clamped log P[u][c]; nil rows mean uniform (0 works since
// only relative weights matter).
func refLogProb(p []float64, c int) float64 {
	if p == nil {
		return 0
	}
	v := p[c]
	if v < 1e-12 {
		v = 1e-12
	}
	return math.Log(v)
}

// Sample draws a contiguous partition with probability proportional to
// prod_u probs[u][f(u)]. probs may be nil (uniform over the family). Under a
// per-chip capacity bound it redraws until the sample fits (rejection keeps
// the distribution exact, conditioned on feasibility).
func (sg *refSegmenter) refSample(probs [][]float64, rng *rand.Rand) (partition.Partition, error) {
	p, err := sg.refSampleOnce(probs, rng)
	if err != nil || sg.chipCap == nil {
		return p, err
	}
	for attempt := 0; !sg.refFitsCapacity(p); attempt++ {
		if attempt >= segmentCapacityRetries {
			return nil, fmt.Errorf("cpsolver: no capacity-feasible segmentation in %d draws: %w",
				segmentCapacityRetries, ErrInfeasible)
		}
		if p, err = sg.refSampleOnce(probs, rng); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// refFitsCapacity reports whether each chip's total weight footprint under p
// stays within the per-chip capacity bound.
func (sg *refSegmenter) refFitsCapacity(p partition.Partition) bool {
	var used [mcm.MaxChips]int64
	for v, c := range p {
		used[c] += sg.g.Node(v).ParamBytes
		if used[c] > sg.chipCap[c] {
			return false
		}
	}
	return true
}

// refSampleOnce draws one contiguous partition via the forward-backward DP.
func (sg *refSegmenter) refSampleOnce(probs [][]float64, rng *rand.Rand) (partition.Partition, error) {
	n := len(sg.order)
	c := sg.k
	if probs != nil && len(probs) != n {
		return nil, fmt.Errorf("cpsolver: probs has %d rows for %d nodes", len(probs), n)
	}
	if c == 1 {
		return sg.refEmit(nil)
	}
	// Per-chip prefix sums of log-probabilities along the topo layout:
	// ps[k][g] = sum over positions q <= g of log P[order[q]][k].
	if sg.logPS == nil {
		sg.logPS = make([][]float64, c)
		for k := range sg.logPS {
			sg.logPS[k] = make([]float64, n)
		}
	}
	// Per-node log-likelihoods are tempered to a per-segment average:
	// without this, thousands of independent per-node factors accumulate
	// into enormous segment-level log-ratios, so even the mild biases of
	// an untrained policy would pin every boundary and refEmit wildly
	// imbalanced layouts. Scaling by C/N makes a segment's weight the
	// mean per-node preference: negligible for a near-uniform policy
	// (the counting prior dominates, samples stay balanced and diverse),
	// decisive for a confident one (mean log-ratios survive intact).
	calib := math.Sqrt(float64(c) / float64(n))
	if calib > 1 {
		calib = 1
	}
	ps := sg.logPS
	for k := 0; k < c; k++ {
		acc := 0.0
		for q := 0; q < n; q++ {
			var row []float64
			if probs != nil {
				row = probs[sg.order[q]]
			}
			acc += calib * refLogProb(row, k)
			ps[k][q] = acc
		}
	}
	// Forward DP: alpha[k][g] = log total weight of layouts of the first
	// k+1 segments with boundary k+1 at gap g (gap g = between positions
	// g and g+1; boundaries live at gaps 0..n-2).
	// alpha[0][g] = ps[0][g]; alpha[k][g] = ps[k][g] + LSE over feasible
	// g' (next[g'] <= g) of (alpha[k-1][g'] - ps[k][g']).
	nb := c - 1 // number of boundaries
	if sg.alpha == nil {
		sg.alpha = make([][]float64, nb)
		for k := range sg.alpha {
			sg.alpha[k] = make([]float64, n-1)
		}
		sg.boundsBuf = make([]int, nb)
		sg.wScratch = make([]float64, n-1)
	}
	alpha := sg.alpha
	for g := 0; g < n-1; g++ {
		alpha[0][g] = ps[0][g]
	}
	for k := 1; k < nb; k++ {
		// Streaming LSE over g' with next[g'] <= g, exploiting that
		// next is nondecreasing.
		lseMax := math.Inf(-1)
		lseSum := 0.0
		gp := 0
		for g := 0; g < n-1; g++ {
			for gp < n-1 && int(sg.next[gp]) <= g {
				w := alpha[k-1][gp] - ps[k][gp]
				if !math.IsInf(w, -1) {
					if w > lseMax {
						lseSum = lseSum*math.Exp(lseMax-w) + 1
						lseMax = w
					} else {
						lseSum += math.Exp(w - lseMax)
					}
				}
				gp++
			}
			if lseSum == 0 {
				alpha[k][g] = math.Inf(-1)
			} else {
				alpha[k][g] = ps[k][g] + lseMax + math.Log(lseSum)
			}
		}
	}
	// Sample the last boundary: weight = alpha[nb-1][g] + tail segment on
	// chip c-1 (positions g+1..n-1). Weights stream through the reused
	// scratch slice; building closures here would allocate per boundary.
	bounds := sg.boundsBuf
	w := sg.wScratch
	for g := 0; g < n-1; g++ {
		w[g] = alpha[nb-1][g] + ps[c-1][n-1] - ps[c-1][g]
	}
	g, err := refSampleLogWeights(rng, w)
	if err != nil {
		return nil, fmt.Errorf("cpsolver: segment DP infeasible: %w", err)
	}
	bounds[nb-1] = g
	// Backward: given boundary k at gap g, boundary k-1 at g' with weight
	// alpha[k-1][g'] - ps[k][g'] over feasible g' (next[g'] <= g).
	for k := nb - 1; k >= 1; k-- {
		gk := bounds[k]
		for gp := 0; gp < n-1; gp++ {
			if int(sg.next[gp]) > gk {
				w[gp] = math.Inf(-1)
			} else {
				w[gp] = alpha[k-1][gp] - ps[k][gp]
			}
		}
		g, err := refSampleLogWeights(rng, w)
		if err != nil {
			return nil, fmt.Errorf("cpsolver: segment DP backward step failed: %w", err)
		}
		bounds[k-1] = g
	}
	return sg.refEmit(bounds)
}

// Fit projects a (possibly invalid) hint onto the contiguous family,
// mirroring FIX mode: agreements with the hint get overwhelming weight, so
// the sampler keeps y wherever a valid layout allows and repairs the rest
// with random but span-respecting boundaries.
func (sg *refSegmenter) refFit(y []int, rng *rand.Rand) (partition.Partition, error) {
	n := len(sg.order)
	if len(y) != n {
		return nil, fmt.Errorf("cpsolver: hint has %d entries for %d nodes", len(y), n)
	}
	const agree, disagree = 1.0, 1e-9
	if sg.fitProbs == nil {
		sg.fitProbs = make([][]float64, n)
		sg.fitFlat = make([]float64, sg.chips*n)
		for u := 0; u < n; u++ {
			sg.fitProbs[u] = sg.fitFlat[u*sg.chips : (u+1)*sg.chips]
		}
	}
	probs := sg.fitProbs
	for u := 0; u < n; u++ {
		for k := range probs[u] {
			probs[u][k] = disagree
		}
		if y[u] >= 0 && y[u] < sg.chips {
			probs[u][y[u]] = agree
		}
	}
	return sg.refSample(probs, rng)
}

// refEmit materializes the partition from boundary gaps (sorted ascending).
func (sg *refSegmenter) refEmit(bounds []int) (partition.Partition, error) {
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

// refSampleLogWeights draws an index in [0,len(w)) with probability
// proportional to exp(w[i]), streaming in one pass (weighted reservoir via
// the Gumbel trick). It allocates nothing; callers reuse the weight slice.
func refSampleLogWeights(rng *rand.Rand, w []float64) (int, error) {
	best := -1
	bestKey := math.Inf(-1)
	for i, wi := range w {
		if math.IsInf(wi, -1) {
			continue
		}
		// Gumbel-max: argmax of w(i) + Gumbel noise is a categorical
		// sample from softmax(w).
		key := wi - math.Log(-math.Log(rng.Float64()))
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
