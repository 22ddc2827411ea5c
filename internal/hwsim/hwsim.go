// Package hwsim simulates the paper's evaluation platform: a multi-chip TPU
// package running a partitioned tensor graph as a pipeline. It stands in for
// the real hardware of Sec. 5 (proprietary; see DESIGN.md) and plays two
// roles:
//
//   - it measures T(G,f), the steady-state throughput of a partition,
//     modeling per-operator efficiencies, per-op dispatch overhead, and
//     per-link contention over the interconnect topology's routes that the
//     analytical cost model ignores;
//   - it decides H(G,f), the dynamic constraint: the compiler backend's
//     list schedule must fit each chip's SRAM, or the partition fails with
//     zero throughput, exactly as the paper's platform behaves ("our
//     evaluation platform returns a zero throughput when it evaluates an
//     invalid partition").
//
// A partition that needs a transfer the topology cannot route (a backwards
// edge on the uni-directional ring) is rejected with an explicit FailReason
// rather than silently priced at zero — the analytical cost model reaches
// the same verdict on the same partition, so the two evaluation
// environments agree on which partitions are legal.
//
// Measurements carry deterministic, seed-derived noise so repeated runs
// reproduce the paper's mean-and-standard-deviation methodology without
// real nondeterminism.
//
//mcmlint:deterministic
//mcmlint:hotpath
package hwsim

import (
	"fmt"
	"hash/fnv"
	"math"

	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
	"mcmpart/internal/sched"
)

// opEfficiency is the fraction of a chiplet's peak FLOP rate each operator
// kind sustains. Dense contractions run near peak; memory-bound elementwise
// and normalization traffic runs far below it; data-movement ops cost only
// dispatch overhead. The analytical model's flat-rate assumption is one of
// the two gaps (with memory) between prediction and measurement.
var opEfficiency = [graph.NumOpKinds]float64{
	graph.OpInput:         0,
	graph.OpConst:         0,
	graph.OpConv:          0.85,
	graph.OpDepthwiseConv: 0.45,
	graph.OpMatMul:        0.85,
	graph.OpPool:          0.10,
	graph.OpActivation:    0.08,
	graph.OpElementwise:   0.08,
	graph.OpNorm:          0.08,
	graph.OpSoftmax:       0.06,
	graph.OpEmbedding:     0.25,
	graph.OpReshape:       0,
	graph.OpConcat:        0,
	graph.OpSplit:         0,
	graph.OpReduce:        0.08,
	graph.OpOutput:        0,
}

// OpEff returns the fraction of peak FLOP rate the simulator credits to the
// operator kind (0 for pure data-movement ops, which cost only dispatch
// overhead). It is exported so the conformance harness can inject the
// simulator's cost semantics into the analytic lower bound
// (analyze.CostParams) without internal/analyze ever importing hwsim.
func OpEff(op graph.OpKind) float64 {
	if int(op) >= 0 && int(op) < len(opEfficiency) {
		return opEfficiency[op]
	}
	return 0
}

// The simulator's fixed parameters.
const (
	// DefaultOpOverhead is the fixed per-op dispatch time in seconds. It is
	// exported for the same reason OpEff is.
	DefaultOpOverhead = 200e-9
	// noiseStd is the relative standard deviation of measurement noise.
	noiseStd = 0.02
	// pipelineFactor multiplies peak activation memory to model
	// steady-state pipeline buffering.
	pipelineFactor = 1.5
	// pressureKnee and pressureSlope model allocator pressure: a chip
	// whose SRAM utilization exceeds the knee runs its compute slower by
	// slope * (utilization - knee). This is one of the dynamic effects
	// the analytical cost model cannot see (Sec. 5.4's false positives:
	// partitions that look fast analytically but sit at the memory edge).
	pressureKnee  = 0.75
	pressureSlope = 2
)

// Options configure the simulator.
type Options struct {
	// Seed derives the deterministic measurement noise. Different seeds
	// model different "runs" of the same binary on hardware.
	Seed int64
}

// Simulator evaluates partitions on a simulated MCM package.
type Simulator struct {
	pkg  *mcm.Package
	topo mcm.Topology
	seed int64
}

// Simulator is one of the two evaluation environments of the paper's
// pipeline.
var _ eval.Evaluator = (*Simulator)(nil)

// New returns a simulator of the package. It panics on a package whose
// topology cannot be built; validate packages before simulating them.
func New(pkg *mcm.Package, opts Options) *Simulator {
	topo, err := pkg.Topo()
	if err != nil {
		panic("hwsim: " + err.Error())
	}
	return &Simulator{pkg: pkg, topo: topo, seed: opts.Seed}
}

// Package returns the simulated package.
func (s *Simulator) Package() *mcm.Package { return s.pkg }

// Result is the outcome of running one partition.
type Result struct {
	// Valid reports H(G,f): false means the compiler backend rejected the
	// partition (today: a chip's working set exceeds SRAM).
	Valid bool
	// FailReason describes why Valid is false.
	FailReason string
	// Interval is the steady-state pipeline interval in seconds.
	Interval float64
	// Throughput is 1/Interval (0 when invalid).
	Throughput float64
	// ChipBusy and LinkBusy are per-chip compute and per-directed-link
	// transfer times per interval; the bottleneck defines the interval.
	// LinkBusy is indexed by the topology's link enumeration (on the
	// default uni-directional ring, link l joins chips l and l+1).
	ChipBusy []float64
	LinkBusy []float64
	// PeakMem is each chip's SRAM demand in bytes.
	PeakMem []int64
}

// opTime returns the simulated execution time of one node on a chip.
func (s *Simulator) opTime(n *graph.Node, chip int) float64 {
	eff := 0.0
	if int(n.Op) < len(opEfficiency) {
		eff = opEfficiency[n.Op]
	}
	t := DefaultOpOverhead
	if eff > 0 && n.FLOPs > 0 {
		t += n.FLOPs / (s.pkg.ChipFLOPs(chip) * eff)
	}
	return t
}

// Evaluate runs the partition without measurement noise. The partition must
// already satisfy the static constraints; the simulator checks only the
// dynamic ones (it is the stage after the solver in the compilation flow).
func (s *Simulator) Evaluate(g *graph.Graph, p partition.Partition) Result {
	chips := s.pkg.Chips
	res := Result{
		ChipBusy: make([]float64, chips),
		PeakMem:  make([]int64, chips),
	}
	scheds, err := sched.Compute(g, p, chips)
	if err != nil {
		res.FailReason = err.Error()
		return res
	}
	// Static transfer legality: every cut edge must be routable on the
	// interconnect. On the uni-directional ring a backwards (dst < src)
	// edge has no route; rejecting it here keeps the simulator in
	// agreement with the analytical cost model, which prices the same
	// partition as illegal, instead of silently charging it nothing.
	for _, e := range g.Edges() {
		a, b := p[e.From], p[e.To]
		if a != b {
			if _, ok := s.topo.Hops(a, b); !ok {
				res.FailReason = s.illegalTransfer(e, a, b)
				return res
			}
		}
	}
	// Dynamic constraint: every chip's schedule must fit its SRAM.
	for c := range scheds {
		res.PeakMem[c] = scheds[c].PeakBytes(pipelineFactor)
		if res.PeakMem[c] > s.pkg.ChipSRAM(c) {
			res.FailReason = "out of memory on chip"
			return res
		}
	}
	// Compute time per chip, slowed by allocator pressure near the
	// memory limit.
	nodes := g.Nodes()
	for c := range scheds {
		for _, v := range scheds[c].Ops {
			res.ChipBusy[c] += s.opTime(&nodes[v], c)
		}
		util := float64(res.PeakMem[c]) / float64(s.pkg.ChipSRAM(c))
		if util > pressureKnee {
			res.ChipBusy[c] *= 1 + pressureSlope*(util-pressureKnee)
		}
	}
	// Link contention: a transfer from chip a to chip b occupies every
	// directed link on its route for its serialization time.
	if nl := s.topo.NumLinks(); nl > 0 {
		res.LinkBusy = make([]float64, nl)
		route := make([]int, 0, nl) // no route visits a link twice
		for _, e := range g.Edges() {
			a, b := p[e.From], p[e.To]
			if a == b {
				continue
			}
			per := s.pkg.LinkLatency + float64(e.Bytes)/s.pkg.LinkBandwidth
			route, _ = s.topo.AppendRoute(route[:0], a, b)
			for _, l := range route {
				res.LinkBusy[l] += per
			}
		}
	}
	// The pipeline interval is set by the busiest resource.
	interval := 0.0
	for _, t := range res.ChipBusy {
		if t > interval {
			interval = t
		}
	}
	for _, t := range res.LinkBusy {
		if t > interval {
			interval = t
		}
	}
	if interval <= 0 {
		res.FailReason = "empty graph"
		return res
	}
	res.Valid = true
	res.Interval = interval
	res.Throughput = 1 / interval
	return res
}

// illegalTransfer words the FailReason of a cut edge the topology cannot
// route from chip a to chip b.
func (s *Simulator) illegalTransfer(e graph.Edge, a, b int) string {
	return fmt.Sprintf("illegal transfer: no %s route from chip %d to chip %d (edge %d -> %d)",
		s.topo.Kind(), a, b, e.From, e.To)
}

// Measure runs the partition once with deterministic measurement noise, as
// one "hardware run". run distinguishes repeated measurements of the same
// partition.
func (s *Simulator) Measure(g *graph.Graph, p partition.Partition, run int) Result {
	res := s.Evaluate(g, p)
	if !res.Valid {
		return res
	}
	noise := 1 + noiseStd*gaussian(s.noiseSeed(p, run))
	if noise < 0.5 {
		noise = 0.5
	}
	res.Interval *= noise
	res.Throughput = 1 / res.Interval
	return res
}

// Assess implements eval.Evaluator: one measured run (run 0) condensed into
// the shared verdict, with the peak fractional SRAM utilization across chips.
func (s *Simulator) Assess(g *graph.Graph, p partition.Partition) eval.Verdict {
	res := s.Measure(g, p, 0)
	v := eval.Verdict{
		Throughput: res.Throughput,
		Valid:      res.Valid,
		FailReason: res.FailReason,
	}
	for c, mem := range res.PeakMem {
		if u := float64(mem) / float64(s.pkg.ChipSRAM(c)); u > v.Utilization {
			v.Utilization = u
		}
	}
	return v
}

// noiseSeed hashes the partition content, simulator seed and run index into
// a deterministic noise source.
func (s *Simulator) noiseSeed(p partition.Partition, run int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(s.seed))
	put(uint64(run))
	for _, c := range p {
		put(uint64(c))
	}
	return h.Sum64()
}

// gaussian turns a hash into a standard normal sample via Box-Muller on two
// derived uniforms.
func gaussian(seed uint64) float64 {
	// SplitMix64 steps for two independent uniforms.
	next := func() float64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return (float64(z>>11) + 0.5) / (1 << 53)
	}
	u1, u2 := next(), next()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
