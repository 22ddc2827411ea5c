package analyze

import (
	"fmt"
	"sort"

	"mcmpart/internal/partition"
)

// Options is Plan's parameter. It has no fields: it stays only because
// bench/probes.go, which only ROADMAP item 1 may edit, names it in a call.
type Options struct{}

// refinePasses is how many coordinate-descent sweeps polish each candidate
// layout's boundaries.
const refinePasses = 2

// PlanInfo reports how a Plan call decided.
type PlanInfo struct {
	// Chips is the chip-prefix size K the plan uses.
	Chips int
	// Latency is the plan's exact analytical-model pipeline interval.
	Latency float64
	// LB is the analytic lower bound (analytical-model semantics), so
	// Latency/LB.Total is a certificate of how far the plan can be from
	// optimal at most.
	LB Bounds
}

// Plan constructs the best contiguous layout the analysis can certify: for
// every chip-prefix size K it places K-1 boundaries by a balanced-compute
// walk under the weight, pair-rule, and boundary-capacity constraints
// (refusing a K that admits no layout), polishes them by coordinate descent
// on the exact per-chunk costs, and keeps the K with the smallest exact
// interval (ties to the smallest K). Everything is prefix-sum arithmetic — no
// evaluator runs — and wholly deterministic.
func (a *Analysis) Plan(Options) (partition.Partition, PlanInfo, error) {
	info := PlanInfo{LB: a.LowerBound()}
	kMax := a.lay.Chips(a.chips)
	bestLat := inf()
	bestK := -1
	bestBounds := make([]int, 0, a.chips)
	scratch := make([]int, a.chips)
	for k := 1; k <= kMax; k++ {
		bounds := scratch[:k-1]
		if !a.constructK(k, bounds) {
			continue
		}
		for pass := 0; pass < refinePasses; pass++ {
			if !a.refineK(k, bounds) {
				break // quiescent
			}
		}
		lat, ok := a.latencyOf(k, bounds)
		if !ok {
			continue
		}
		if lat < bestLat {
			bestLat = lat
			bestK = k
			bestBounds = append(bestBounds[:0], bounds...)
		}
	}
	if bestK < 0 {
		return nil, info, fmt.Errorf("graph %s on package %s: %w", a.g.Name(), a.pkg.Name, ErrInfeasible)
	}
	info.Chips = bestK
	info.Latency = bestLat
	p := partition.Partition(a.lay.Emit(nil, bestBounds))
	if err := p.Validate(a.g, a.chips); err != nil {
		return nil, info, fmt.Errorf("analyze: internal error: constructed layout is invalid: %w", err)
	}
	return p, info, nil
}

// constructK places the K-1 boundaries of an exactly-K layout, walking the
// chunks left to right and aiming each boundary at the balanced-compute
// target while honoring the weight prefix/suffix, per-chunk capacity, and
// pair-rule constraints. It reports whether a layout was found; a K with no
// capacity-feasible layout is always refused, and Plan validates the one it
// keeps.
func (a *Analysis) constructK(k int, bounds []int) bool {
	n := a.n
	if k == 1 {
		return a.prefW[n] <= a.pkg.ChipSRAM(0)
	}
	// Backward greedy fill: minB[c] is the smallest gap boundary c can
	// occupy so every chunk to its right still fits its own chip. This is
	// per-chunk granularity — aggregate remaining capacity is not enough
	// (three 8 MiB chips cannot hold eight 3 MiB nodes even though
	// 24 <= 24: chips 2 and 1 take two nodes each, leaving chip 0 four).
	minB := make([]int, k-1)
	end := n - 1 // last position of the chunk being filled
	for c := k - 1; c >= 1; c-- {
		need := a.prefW[end+1] - a.pkg.ChipSRAM(c)
		s := 0
		if need > 0 {
			// Smallest s with prefW[s] >= need: chunk c covers s..end.
			s = sort.Search(end+1, func(s int) bool { return a.prefW[s] >= need })
			if s > end {
				return false // one position overflows the chip on its own
			}
		}
		minB[c-1] = s - 1
		end = s - 1
		if end < 0 && c > 1 {
			return false // no positions left for the chunks before c
		}
	}

	prev := -1 // gap of the previous boundary
	for c := 0; c < k-1; c++ {
		start := prev + 1 // first position of chunk c
		lo := 0
		if c > 0 {
			lo = int(a.lay.Next[prev])
		}
		if minB[c] > lo {
			lo = minB[c]
		}
		hi := n - 2
		// Chunk weight: positions start..g must fit chip c.
		wLimit := a.prefW[start] + a.pkg.ChipSRAM(c)
		if g := sort.Search(n-1, func(g int) bool { return a.prefW[g+1] > wLimit }) - 1; g < hi {
			hi = g
		}
		// Remaining boundary capacity: k-2-c more boundaries after this one.
		if rem := int32(k - 2 - c); rem > 0 {
			if g := sort.Search(n-1, func(g int) bool { return a.lay.CapFrom[a.lay.Next[g]] < rem }) - 1; g < hi {
				hi = g
			}
		}
		if lo > hi {
			return false
		}
		// Balanced-compute target: cumulative FLOPs proportional to the
		// cumulative peak rate of chips 0..c.
		target := a.totalFLOPs * a.peakPrefix[c+1] / a.peakPrefix[k]
		g := sort.Search(n-1, func(g int) bool { return a.prefF[g+1] >= target })
		if g > hi {
			g = hi
		}
		if g < lo {
			g = lo
		}
		if g > lo && target-a.prefF[g] < a.prefF[g+1]-target {
			g-- // the gap one left is closer to the target
		}
		bounds[c] = g
		prev = g
	}
	return true
}

// refineK runs one coordinate-descent sweep: each boundary in turn moves to
// the gap minimizing the max of its two adjacent chunks' exact costs, within
// the window its neighbors and the constraints allow. Moving a boundary only
// changes those two chunks' costs, so an accepted move never increases the
// layout's interval. Returns whether any boundary moved.
func (a *Analysis) refineK(k int, bounds []int) bool {
	if k < 2 {
		return false
	}
	n := a.n
	moved := false
	for i := 0; i < k-1; i++ {
		start := 0 // first position of chunk i
		lo := 0
		if i > 0 {
			start = bounds[i-1] + 1
			lo = int(a.lay.Next[bounds[i-1]])
		}
		end := n - 1 // last position of chunk i+1
		hi := n - 2
		if i < k-2 {
			end = bounds[i+1]
			// Pair rule against the right neighbor: next[g] <= bounds[i+1].
			hi = sort.Search(n-1, func(g int) bool { return int(a.lay.Next[g]) > end }) - 1
		}
		// Chunk i's weight on chip i, chunk i+1's weight on chip i+1.
		wLimit := a.prefW[start] + a.pkg.ChipSRAM(i)
		if g := sort.Search(n-1, func(g int) bool { return a.prefW[g+1] > wLimit }) - 1; g < hi {
			hi = g
		}
		if need := a.prefW[end+1] - a.pkg.ChipSRAM(i+1); need > 0 {
			if g := sort.Search(n-1, func(g int) bool { return a.prefW[g+1] >= need }); g > lo {
				lo = g
			}
		}
		if lo > hi {
			continue
		}
		// Fixed incoming transfer of chunk i (from the boundary on its
		// left, which this sweep step does not move).
		tIn := 0.0
		if i > 0 {
			tIn = a.gapTransfer(i, bounds[i-1])
		}
		peakI := a.pkg.ChipFLOPs(i)
		peakI1 := a.pkg.ChipFLOPs(i + 1)
		best := bounds[i]
		bestCost := inf()
		for g := lo; g <= hi; g++ {
			busyI := (a.prefF[g+1]-a.prefF[start])/peakI + tIn
			busyI1 := (a.prefF[end+1]-a.prefF[g+1])/peakI1 + a.gapTransfer(i+1, g)
			cost := busyI
			if busyI1 > cost {
				cost = busyI1
			}
			if cost < bestCost {
				bestCost = cost
				best = g
			}
		}
		if best != bounds[i] {
			bounds[i] = best
			moved = true
		}
	}
	return moved
}

// gapTransfer is the total transfer time chip c pays for the cut at gap g
// (every crossing edge priced at the c-1 -> c hop count, matching
// costmodel.Latency edge by edge). Zero-byte edges are excluded from the
// per-edge latency count, as HopTransferTime prices them at zero.
func (a *Analysis) gapTransfer(c, g int) float64 {
	if a.hopsAdj[c] < 0 {
		return inf()
	}
	hops := float64(a.hopsAdj[c])
	return hops * (a.pkg.LinkLatency*float64(a.gapEdges[g]) + float64(a.gapBytes[g])/a.pkg.LinkBandwidth)
}

// latencyOf computes the exact analytical-model interval of the layout.
func (a *Analysis) latencyOf(k int, bounds []int) (float64, bool) {
	n := a.n
	var max float64
	for c := 0; c < k; c++ {
		start, end := 0, n-1
		if c > 0 {
			start = bounds[c-1] + 1
		}
		if c < k-1 {
			end = bounds[c]
		}
		busy := (a.prefF[end+1] - a.prefF[start]) / a.pkg.ChipFLOPs(c)
		if c > 0 {
			if a.hopsAdj[c] < 0 {
				return 0, false
			}
			busy += a.gapTransfer(c, bounds[c-1])
		}
		if busy > max {
			max = busy
		}
	}
	return max, true
}
