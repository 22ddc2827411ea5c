// Package costmodel implements the analytical cost model the paper uses as
// the pre-training reward (Sec. 5.1): it "estimates the latency of running
// all nodes assigned to each chip, and returns the maximal latency of all
// chips". The model is deliberately simple — per-chip peak compute rate, no
// per-operator efficiency, no link contention, and crucially no memory
// model — so it evaluates in microseconds and exhibits the same
// false-positive structure as the paper's (partitions that look fast
// analytically can fail on hardware; Sec. 5.4 measures that gap).
//
// Transfers are priced over the package's interconnect topology: a cut edge
// costs its route's hop count times the per-link latency-plus-serialization
// term. A transfer the topology cannot route at all (a backwards edge on
// the uni-directional ring) makes the partition illegal: Latency returns
// +Inf and Evaluate reports it invalid, in agreement with the hardware
// simulator's verdict on the same partition.
//
//mcmlint:deterministic
package costmodel

import (
	"math"

	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
)

// Model is the analytical cost model for one package.
type Model struct {
	pkg  *mcm.Package
	topo mcm.Topology
}

// Model is one of the two evaluation environments of the paper's pipeline.
var _ eval.Evaluator = (*Model)(nil)

// New returns an analytical model of the package. It panics on a package
// whose topology cannot be built; validate packages before modeling them.
func New(pkg *mcm.Package) *Model {
	topo, err := pkg.Topo()
	if err != nil {
		panic("costmodel: " + err.Error())
	}
	return &Model{pkg: pkg, topo: topo}
}

// Latency estimates the pipeline interval of the partitioned graph: the
// maximum over chips of compute time plus incoming transfer time. A
// partition requiring a transfer the topology cannot route returns +Inf.
// Invalid chip IDs are the caller's bug and panic via the slice indexing.
func (m *Model) Latency(g *graph.Graph, p partition.Partition) float64 {
	chips := m.pkg.Chips
	busy := make([]float64, chips)
	for v, c := range p {
		busy[c] += m.pkg.ComputeTimeOn(c, g.Node(v).FLOPs)
	}
	for _, e := range g.Edges() {
		a, b := p[e.From], p[e.To]
		if a != b {
			hops, ok := m.topo.Hops(a, b)
			if !ok {
				return math.Inf(1)
			}
			busy[b] += m.pkg.HopTransferTime(hops, e.Bytes)
		}
	}
	var max float64
	for _, t := range busy {
		if t > max {
			max = t
		}
	}
	return max
}

// Throughput returns the estimated steady-state throughput (inferences per
// second) of the pipelined execution: the reciprocal of Latency. It returns
// 0 for an empty graph and for partitions with unroutable transfers.
func (m *Model) Throughput(g *graph.Graph, p partition.Partition) float64 {
	l := m.Latency(g, p)
	if l <= 0 || math.IsInf(l, 1) {
		return 0
	}
	return 1 / l
}

// Assess implements eval.Evaluator, the contract shared with the hardware
// simulator: the predicted throughput and whether the partition is
// considered valid. The analytical model cannot observe dynamic
// constraints, so Utilization is always 0 and the only partitions it
// rejects are those whose transfers the topology cannot route — the same
// static legality the simulator enforces, keeping the two environments in
// agreement on which partitions are legal at all. Everything else is
// "valid" here; the memory blind spot is exactly what Sec. 5.4 quantifies.
func (m *Model) Assess(g *graph.Graph, p partition.Partition) eval.Verdict {
	l := m.Latency(g, p)
	if math.IsInf(l, 1) {
		return eval.Verdict{FailReason: "unroutable transfer on " + string(m.topo.Kind()) + " topology"}
	}
	if l <= 0 {
		return eval.Verdict{Valid: true}
	}
	return eval.Verdict{Throughput: 1 / l, Valid: true}
}
