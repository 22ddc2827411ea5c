package analyze

import (
	"math"

	"mcmpart/internal/graph"
)

// CostParams parameterize the lower bound with an evaluation environment's
// cost semantics. The zero value is the analytical cost model's semantics
// (every FLOP at peak rate, no dispatch overhead); the conformance harness
// injects the hardware simulator's per-op efficiency table and dispatch
// overhead to get a bound that is sound against noise-free simulation —
// without analyze ever importing hwsim (the fast path stays simulation-free
// by construction).
type CostParams struct {
	// EffFor returns the fraction of peak FLOP rate an operator kind
	// sustains, 0 meaning the op costs only dispatch overhead. nil means
	// every op runs at peak (the analytical model). Values above 1 are
	// clamped to 1 — a bound must never assume faster-than-peak compute.
	EffFor func(op graph.OpKind) float64
	// OpOverhead is the fixed per-op dispatch time in seconds (0 for the
	// analytical model).
	OpOverhead float64
}

// Bounds is a sound per-interval (pipeline latency) lower bound, split into
// the terms it is the max of. Soundness contract, proven by the
// conformance bound-soundness oracle over the random-graph sweep:
//
//   - Compute <= the environment's interval for EVERY partition the static
//     constraints admit (ValidateOn-clean), regardless of memory.
//   - Total = max(Compute, Transfer) <= the interval of every partition
//     that additionally respects per-chip weight capacity — which includes
//     every partition the hardware simulator accepts. The Transfer term is
//     the cheapest single cut edge, charged only when total weights
//     provably fit no single chip (so some edge of a weakly connected
//     graph must be cut).
//
// Bounds say nothing about partitions outside those families; in
// particular, the analytical cost model prices memory-overflowing
// partitions too, and only Compute applies to them.
type Bounds struct {
	// Compute is the work-conservation term: total (efficiency-discounted)
	// FLOPs spread over the aggregate peak rate, no slower than the
	// heaviest single node on the fastest chip.
	Compute float64
	// Transfer is the forced-communication term (0 when a single chip
	// could hold every weight, or the graph is not weakly connected).
	Transfer float64
	// Total is max(Compute, Transfer), the headline bound.
	Total float64
}

// LowerBound returns the analytic lower bound under the analytical cost
// model's semantics (CostParams zero value).
func (a *Analysis) LowerBound() Bounds { return a.LowerBoundWith(CostParams{}) }

// LowerBoundWith returns the analytic lower bound under the given cost
// semantics. See Bounds for the soundness contract; the derivation:
//
//   - Sum term: sum_c peak_c * busy_c >= sum_v flops_v/eff_v + n*oh*minPeak
//     (each node's time on chip c is >= oh + flops/(peak_c*eff)), so the
//     max busy is >= that sum divided by the aggregate peak rate.
//   - Node term: the chip hosting node v is busy >= oh + flops_v/(eff_v *
//     maxPeak); data-movement ops (eff 0) still pay oh.
//   - Transfer term: when weights force a second chip and the graph is
//     weakly connected, some edge is cut; any cut edge costs at least one
//     hop of latency-plus-serialization on the resource that carries it
//     (the receiving chip in the cost model, a route link in the
//     simulator).
func (a *Analysis) LowerBoundWith(cp CostParams) Bounds {
	var b Bounds
	sumPeak := a.peakPrefix[a.chips]
	maxPeak := a.pkg.MaxChipFLOPs()
	minPeak := maxPeak
	for c := 0; c < a.chips; c++ {
		if f := a.pkg.ChipFLOPs(c); f < minPeak {
			minPeak = f
		}
	}

	effTotal, effMaxNode := 0.0, 0.0
	if cp.EffFor == nil {
		effTotal, effMaxNode = a.totalFLOPs, a.maxNodeFLOPs
	} else {
		for _, nd := range a.g.Nodes() {
			eff := cp.EffFor(nd.Op)
			if eff <= 0 || nd.FLOPs <= 0 {
				continue
			}
			if eff > 1 {
				eff = 1
			}
			scaled := nd.FLOPs / eff
			effTotal += scaled
			if scaled > effMaxNode {
				effMaxNode = scaled
			}
		}
	}
	oh := cp.OpOverhead
	sumTerm := (effTotal + float64(a.n)*oh*minPeak) / sumPeak
	nodeTerm := oh + effMaxNode/maxPeak
	b.Compute = math.Max(sumTerm, nodeTerm)

	maxSRAM := a.pkg.ChipSRAM(0)
	for c := 1; c < a.chips; c++ {
		if s := a.pkg.ChipSRAM(c); s > maxSRAM {
			maxSRAM = s
		}
	}
	if a.totalParams > maxSRAM && a.connected && a.g.NumEdges() > 0 {
		b.Transfer = a.minEdgePrice
	}
	b.Total = math.Max(b.Compute, b.Transfer)
	return b
}

func inf() float64 { return math.Inf(1) }
