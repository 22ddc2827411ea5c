// Package conformance is the cross-environment differential-testing harness:
// it runs generated scenarios (internal/randgraph) through the whole stack —
// cost model, hardware simulator, topology arithmetic, Planner, Service —
// and checks the invariants the layers promise each other. The oracle list
// is a contract (DESIGN.md §9); every future change to an evaluation
// environment, a topology, or a planning method has to keep it green.
//
// The oracles:
//
//  1. Legality agreement — for any partition, the analytical cost model and
//     the hardware simulator agree on whether its transfers are routable,
//     and when both reject, their FailReasons fall in the same class. The
//     simulator may additionally reject for memory (the paper's Sec. 5.4
//     blind spot); it may never disagree on routability.
//  2. Transfer-pricing monotonicity — route pricing over the package
//     topology is sane: hop counts match route lengths, link indices are in
//     range, and transfer time is monotone in both payload and hop count.
//  3. Plan validity — every Planner method either returns a partition that
//     passes partition.ValidateOn with internally consistent Result fields,
//     or a typed error; never a silently-invalid plan.
//  4. Cache identity — a Service cache hit is bit-identical to the cold
//     plan it replays (float64s compared by bits, not tolerance).
//  5. Bound soundness — the static analysis's cost lower bounds
//     (internal/analyze) stay below the analytical latency of every sampled
//     partition in their contract's family, and below the noise-free
//     simulated interval of every partition the simulator accepts.
//  6. Analytic plan certificate — the analytic fast path's plan is
//     ValidateOn-clean, priced exactly as the cost model prices it, and
//     never undercuts its own lower bound.
//
// Every check is a standalone function over explicit inputs, so a test can
// feed a deliberately broken environment and watch the oracle fail — the
// harness's own regression story.
//
//mcmlint:deterministic
package conformance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
)

// Violation is one broken invariant: which oracle, on which scenario, and
// what was observed. Scenario strings carry the generating seed so any
// violation is reproducible in isolation.
type Violation struct {
	// Oracle names the broken check ("legality", "monotonicity", "plan",
	// "cache", "bound").
	Oracle string `json:"oracle"`
	// Scenario identifies the case: package, graph (with its seed), method.
	Scenario string `json:"scenario"`
	// Detail describes the observed disagreement.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Oracle, v.Scenario, v.Detail)
}

// SortViolations orders violations deterministically (scenario, oracle,
// detail) so reports are byte-stable per seed.
func SortViolations(vs []Violation) {
	sort.Slice(vs, func(a, b int) bool {
		if vs[a].Scenario != vs[b].Scenario {
			return vs[a].Scenario < vs[b].Scenario
		}
		if vs[a].Oracle != vs[b].Oracle {
			return vs[a].Oracle < vs[b].Oracle
		}
		return vs[a].Detail < vs[b].Detail
	})
}

// FailClass buckets an evaluator FailReason into the classes the
// environments must agree on:
//
//	"routability" — the partition needs a transfer the topology cannot route
//	"memory"      — a chip's working set exceeds its SRAM (simulator only)
//	"structure"   — the partition/graph pair is malformed (bad chip IDs, …)
//	"none"        — the partition passed ("" reason)
//	"other"       — anything else
func FailClass(reason string) string {
	switch {
	case reason == "":
		return "none"
	case strings.Contains(reason, "unroutable") ||
		strings.Contains(reason, "illegal transfer") ||
		strings.Contains(reason, "no route"):
		return "routability"
	case strings.Contains(reason, "out of memory"):
		return "memory"
	case strings.Contains(reason, "chip") || strings.Contains(reason, "partition"):
		return "structure"
	default:
		return "other"
	}
}

// CheckLegalityAgreement runs one partition through both evaluation
// environments and checks the shared-legality contract: the model invalid
// ⇔ the simulator invalid for a routability-class reason. model is expected
// to be the analytical cost model and sim the hardware simulator, but the
// check only assumes the documented contract, so tests can substitute
// broken environments.
func CheckLegalityAgreement(scenario string, g *graph.Graph, pkg *mcm.Package,
	p partition.Partition, model, sim eval.Evaluator) []Violation {
	mv := model.Assess(g, p)
	sv := sim.Assess(g, p)
	var out []Violation
	add := func(format string, args ...any) {
		out = append(out, Violation{Oracle: "legality", Scenario: scenario, Detail: fmt.Sprintf(format, args...)})
	}
	switch {
	case !mv.Valid:
		// The model only rejects unroutable transfers; the simulator must
		// reject the same partition for the same class of reason.
		if FailClass(mv.FailReason) != "routability" {
			add("model rejected for class %q (%s); the analytical model may only reject routability",
				FailClass(mv.FailReason), mv.FailReason)
		}
		if sv.Valid {
			add("model invalid (%s) but simulator valid", mv.FailReason)
		} else if FailClass(sv.FailReason) != FailClass(mv.FailReason) {
			add("FailReason class mismatch: model %q (%s) vs simulator %q (%s)",
				FailClass(mv.FailReason), mv.FailReason, FailClass(sv.FailReason), sv.FailReason)
		}
	case !sv.Valid:
		// Model valid, simulator invalid: only the dynamic constraints the
		// model cannot see (memory, empty/structure edge cases) may explain
		// it — a routability rejection here means the environments diverge.
		if FailClass(sv.FailReason) == "routability" {
			add("simulator rejected routability (%s) on a partition the model prices as legal", sv.FailReason)
		}
	default:
		// Both valid: throughputs must be positive and finite.
		if !(mv.Throughput > 0) || math.IsInf(mv.Throughput, 0) || math.IsNaN(mv.Throughput) {
			add("model reports valid but throughput %v", mv.Throughput)
		}
		if !(sv.Throughput > 0) || math.IsInf(sv.Throughput, 0) || math.IsNaN(sv.Throughput) {
			add("simulator reports valid but throughput %v", sv.Throughput)
		}
	}
	// A statically clean partition (ValidateOn passes) must never be
	// rejected for routability by either environment.
	if err := p.ValidateOn(g, pkg); err == nil {
		if !mv.Valid {
			add("ValidateOn-clean partition rejected by the model: %s", mv.FailReason)
		}
		if !sv.Valid && FailClass(sv.FailReason) == "routability" {
			add("ValidateOn-clean partition rejected for routability by the simulator: %s", sv.FailReason)
		}
	}
	return out
}

// CheckTransferMonotonicity checks the topology's route arithmetic and
// pricing on every (src, dst) chip pair: hop counts match route lengths,
// link indices are in range, self-transfers are free, and HopTransferTime
// is monotone in payload bytes and in hop count.
func CheckTransferMonotonicity(scenario string, pkg *mcm.Package) []Violation {
	var out []Violation
	add := func(format string, args ...any) {
		out = append(out, Violation{Oracle: "monotonicity", Scenario: scenario, Detail: fmt.Sprintf(format, args...)})
	}
	topo, err := pkg.Topo()
	if err != nil {
		add("package topology cannot be built: %v", err)
		return out
	}
	nl := topo.NumLinks()
	maxHops := 0
	for src := 0; src < pkg.Chips; src++ {
		if h, ok := topo.Hops(src, src); !ok || h != 0 {
			add("Hops(%d,%d) = (%d,%v), want (0,true)", src, src, h, ok)
		}
		for dst := 0; dst < pkg.Chips; dst++ {
			hops, ok := topo.Hops(src, dst)
			route, rok := topo.AppendRoute(nil, src, dst)
			if ok != rok {
				add("Hops and AppendRoute disagree on routability of %d->%d", src, dst)
				continue
			}
			if !ok {
				continue
			}
			if len(route) != hops {
				add("route %d->%d has %d links for %d hops", src, dst, len(route), hops)
			}
			for _, l := range route {
				if l < 0 || l >= nl {
					add("route %d->%d uses link %d outside [0,%d)", src, dst, l, nl)
				}
			}
			if hops > maxHops {
				maxHops = hops
			}
		}
	}
	// Pricing: monotone in bytes at fixed hops, monotone in hops at fixed
	// bytes, and free at zero hops or zero bytes.
	bytes := []int64{0, 1, 1 << 10, 1 << 17, 1 << 24}
	for h := 0; h <= maxHops; h++ {
		prev := -1.0
		for _, b := range bytes {
			t := pkg.HopTransferTime(h, b)
			if h == 0 || b == 0 {
				if t != 0 {
					add("HopTransferTime(%d,%d) = %v, want 0", h, b, t)
				}
				continue
			}
			if t < prev {
				add("HopTransferTime(%d,·) not monotone in bytes: %v after %v", h, t, prev)
			}
			if t <= 0 || math.IsInf(t, 0) || math.IsNaN(t) {
				add("HopTransferTime(%d,%d) = %v", h, b, t)
			}
			prev = t
		}
	}
	for _, b := range bytes[2:] {
		prev := 0.0
		for h := 1; h <= maxHops; h++ {
			t := pkg.HopTransferTime(h, b)
			if t < prev {
				add("HopTransferTime(·,%d) not monotone in hops: %v after %v", b, t, prev)
			}
			prev = t
		}
	}
	return out
}

// SamplePartitions draws a deterministic mix of test partitions for the
// legality oracle: monotone chunkings of the topological order (statically
// legal on every topology), uniformly random assignments (frequently
// unroutable on the uni-directional ring), and reversed chunkings
// (deliberately backwards). rng must be seeded by the caller; the mix is a
// pure function of its stream.
func SamplePartitions(g *graph.Graph, chips int, rng *rand.Rand, n int) []partition.Partition {
	lay, err := g.Layout()
	if err != nil {
		return nil
	}
	order := lay.Order
	parts := make([]partition.Partition, 0, n)
	for i := 0; i < n; i++ {
		p := make(partition.Partition, g.NumNodes())
		switch i % 3 {
		case 0: // monotone chunking over the topo order
			k := 1 + rng.Intn(chips)
			for pos, v := range order {
				p[v] = pos * k / len(order)
			}
		case 1: // uniform random assignment
			for v := range p {
				p[v] = rng.Intn(chips)
			}
		default: // reversed chunking: backwards on the uni-directional ring
			k := 1 + rng.Intn(chips)
			for pos, v := range order {
				p[v] = (k - 1) - pos*k/len(order)
			}
		}
		parts = append(parts, p)
	}
	return parts
}
