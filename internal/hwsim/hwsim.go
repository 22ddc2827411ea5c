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
	"math"
	"sync"

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
	var t tally
	scheds, err := sched.Compute(g, p, s.pkg.Chips)
	interval, reason := s.simulate(g, p, scheds, err, &t)
	chips := s.pkg.Chips
	res := Result{
		FailReason: reason,
		ChipBusy:   append([]float64(nil), t.busy[:chips]...),
		PeakMem:    append([]int64(nil), t.peak[:chips]...),
	}
	if t.linked && len(t.links) > 0 {
		res.LinkBusy = append([]float64(nil), t.links...)
	}
	if reason == "" {
		res.Valid = true
		res.Interval = interval
		res.Throughput = 1 / interval
	}
	return res
}

// tally is what one run adds up per resource: each chip's compute time and
// SRAM demand, and each directed link's transfer time (linked reports that
// the run got as far as the links). A run that fails leaves what it had
// tallied by then, and zero for the rest.
type tally struct {
	busy   [mcm.MaxChips]float64
	peak   [mcm.MaxChips]int64
	links  []float64
	route  []int
	linked bool
}

// simulate is one noise-free run of p from its schedules (or the error
// scheduling it returned) into t. It returns the pipeline interval, or why
// the partition fails.
func (s *Simulator) simulate(g *graph.Graph, p partition.Partition, scheds []sched.ChipSchedule, err error, t *tally) (interval float64, reason string) {
	chips := s.pkg.Chips
	clear(t.busy[:chips])
	clear(t.peak[:chips])
	t.linked = false
	if err != nil {
		return 0, err.Error()
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
				return 0, s.illegalTransfer(e, a, b)
			}
		}
	}
	// Dynamic constraint: every chip's schedule must fit its SRAM.
	for c := range scheds {
		t.peak[c] = scheds[c].PeakBytes(pipelineFactor)
		if t.peak[c] > s.pkg.ChipSRAM(c) {
			return 0, "out of memory on chip"
		}
	}
	// Compute time per chip, slowed by allocator pressure near the
	// memory limit.
	nodes := g.Nodes()
	for c := range scheds {
		for _, v := range scheds[c].Ops {
			t.busy[c] += s.opTime(&nodes[v], c)
		}
		util := float64(t.peak[c]) / float64(s.pkg.ChipSRAM(c))
		if util > pressureKnee {
			t.busy[c] *= 1 + pressureSlope*(util-pressureKnee)
		}
	}
	// Link contention: a transfer from chip a to chip b occupies every
	// directed link on its route for its serialization time.
	nl := s.topo.NumLinks()
	if cap(t.links) < nl {
		t.links, t.route = make([]float64, nl), make([]int, 0, nl) // no route visits a link twice
	}
	t.links = t.links[:nl]
	clear(t.links)
	t.linked = true
	for _, e := range g.Edges() {
		a, b := p[e.From], p[e.To]
		if a == b {
			continue
		}
		per := s.pkg.LinkLatency + float64(e.Bytes)/s.pkg.LinkBandwidth
		t.route, _ = s.topo.AppendRoute(t.route[:0], a, b)
		for _, l := range t.route {
			t.links[l] += per
		}
	}
	// The pipeline interval is set by the busiest resource.
	for _, b := range t.busy[:chips] {
		if b > interval {
			interval = b
		}
	}
	for _, b := range t.links {
		if b > interval {
			interval = b
		}
	}
	if interval <= 0 {
		return 0, "empty graph"
	}
	return interval, ""
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
	res.Interval *= s.noise(p, run)
	res.Throughput = 1 / res.Interval
	return res
}

// noise is the factor measurement noise scales run run's interval of p by.
func (s *Simulator) noise(p partition.Partition, run int) float64 {
	return max(0.5, 1+noiseStd*gaussian(s.noiseSeed(p, run)))
}

// sampleRun is the memory one Assess works in, which Assess calls share
// through runs: the scheduler's scratch and the run's tally.
type sampleRun struct {
	sched sched.Scratch
	tally
}

var runs = sync.Pool{New: func() any { return new(sampleRun) }}

// Assess implements eval.Evaluator: one measured run (run 0) condensed into
// the shared verdict, with the peak fractional SRAM utilization across
// chips. It is Measure's run in memory it reuses — pooled, so that any
// number of goroutines may assess at once — and allocates nothing on a
// partition the simulator accepts or rejects for memory.
func (s *Simulator) Assess(g *graph.Graph, p partition.Partition) eval.Verdict {
	r := runs.Get().(*sampleRun)
	defer runs.Put(r)
	scheds, err := r.sched.Compute(g, p, s.pkg.Chips)
	interval, reason := s.simulate(g, p, scheds, err, &r.tally)
	v := eval.Verdict{FailReason: reason}
	if reason == "" {
		v.Valid = true
		v.Throughput = 1 / (interval * s.noise(p, 0))
	}
	for c, mem := range r.peak[:s.pkg.Chips] {
		if u := float64(mem) / float64(s.pkg.ChipSRAM(c)); u > v.Utilization {
			v.Utilization = u
		}
	}
	return v
}

// noiseSeed hashes the partition content, simulator seed and run index into
// a deterministic noise source: FNV-1a over each value's eight
// little-endian bytes, the hash/fnv New64a sum of that byte stream.
func (s *Simulator) noiseSeed(p partition.Partition, run int) uint64 {
	h := fnvPut(fnvOffset64, uint64(s.seed))
	h = fnvPut(h, uint64(run))
	for _, c := range p {
		h = fnvPut(h, uint64(c))
	}
	return h
}

// FNV-1a's 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPut folds x's eight little-endian bytes into the FNV-1a hash h.
func fnvPut(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x >> (8 * i) & 0xff
		h *= fnvPrime64
	}
	return h
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
