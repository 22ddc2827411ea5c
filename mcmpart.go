// Package mcmpart partitions machine-learning computation graphs across the
// chiplets of a multi-chip-module (MCM) accelerator, reproducing
// "A Transferable Approach for Partitioning Machine Learning Models on
// Multi-Chip-Modules" (Xie et al., MLSys 2022).
//
// The package is the public facade over the building blocks in internal/:
// computation graphs, MCM package descriptors, the constraint solver, the
// analytical cost model and hardware simulator, the search baselines, and
// the constrained-RL partitioner with its pre-training pipeline.
//
// The primary entry point is the Planner, a reusable planning session bound
// to one package. It makes the paper's headline result — pre-train once,
// deploy zero-shot or with fine-tuning on unseen graphs — the public
// surface:
//
//	pl, err := mcmpart.NewPlanner(mcmpart.Edge36())
//	pl.Pretrain(ctx, mcmpart.CorpusGraphs(1)[:12], mcmpart.PretrainOptions{})
//	pl.SavePolicy("edge36.policy.json") // reusable, fingerprint-validated
//	res, err := pl.Plan(ctx, mcmpart.BERT(), mcmpart.PlanOptions{
//		Method:       mcmpart.MethodZeroShot,
//		SampleBudget: 200,
//	})
//	fmt.Println(res.Partition, res.Throughput)
//
// For serving many callers from one process — or over the network — wrap
// the planner in a Service: a concurrency-safe front end adding a plan
// cache (keyed by canonical graph fingerprint), a directory-backed policy
// registry, and an async job queue. cmd/mcmpartd serves a Service over the
// HTTP JSON API in NewHTTPHandler, and Client is its thin Go client.
//
// See DESIGN.md for the system inventory, deviations, and reproduction
// notes; cmd/mcmexp regenerates every table and figure of the paper.
//
//mcmlint:deterministic
//mcmlint:errcontract
package mcmpart

import (
	"mcmpart/internal/costmodel"
	"mcmpart/internal/graph"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
	"mcmpart/internal/rl"
	"mcmpart/internal/workload"
)

// Re-exported core types. The implementations live in internal packages;
// these aliases are the supported public names.
type (
	// Graph is a computation graph of tensor operations.
	Graph = graph.Graph
	// Node is one tensor operation.
	Node = graph.Node
	// OpKind identifies an operator kind.
	OpKind = graph.OpKind
	// Package describes an MCM accelerator package.
	Package = mcm.Package
	// Partition maps node IDs to chip IDs.
	Partition = partition.Partition
	// HardwareResult is a simulated hardware evaluation.
	HardwareResult = hwsim.Result
)

// NewGraph returns an empty computation graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// Edge36 returns the 36-chiplet package the paper evaluates on.
func Edge36() *Package { return mcm.Edge36() }

// Dev4 returns a small 4-chip package for experimentation.
func Dev4() *Package { return mcm.Dev4() }

// Dev8 returns an 8-chip package for experimentation.
func Dev8() *Package { return mcm.Dev8() }

// Het4 returns a heterogeneous big/little 4-chip package (two 16 MiB /
// 2 TFLOP/s dies, two 8 MiB / 1 TFLOP/s dies) on the default ring.
func Het4() *Package { return mcm.Het4() }

// Dev8Bi returns the dev8 package on a bidirectional wraparound ring.
func Dev8Bi() *Package { return mcm.Dev8Bi() }

// Mesh16 returns a 16-chip 4x4 2D-mesh package with X-then-Y routing.
func Mesh16() *Package { return mcm.Mesh16() }

// PackagePreset returns a package by name ("dev4", "dev8", "dev8bi",
// "edge36", "het4", "mesh16").
func PackagePreset(name string) (*Package, error) { return mcm.Preset(name) }

// PackageFingerprint returns the stable content hash of a package
// descriptor — the key policies are bound to in artifacts and the registry,
// and the package half of the Service plan-cache key. Graphs have the
// matching Graph.Fingerprint method (canonical: isomorphic node-insertion
// orders hash identically).
func PackageFingerprint(pkg *Package) string { return rl.PackageFingerprint(pkg) }

// ParsePackageJSON deserializes and validates a package descriptor,
// including heterogeneous per-chip arrays and the topology tag; JSON from
// before those fields existed parses to the same homogeneous-ring behavior
// as ever.
func ParsePackageJSON(data []byte) (*Package, error) { return mcm.ParseJSON(data) }

// BERT builds the production-scale 2138-node transformer workload.
func BERT() *Graph { return workload.BERT() }

// CorpusGraphs generates the 87-model synthetic corpus.
func CorpusGraphs(seed int64) []*Graph { return workload.CorpusGraphs(seed) }

// AugmentedCorpusGraphs generates the 87-model corpus plus `random`
// deterministic scenario-fuzzing graphs (layered, branchy, diamond, and
// skewed-MoE families from internal/randgraph) — the opt-in that lets
// pre-training consume generated scenarios beyond the paper's hand-built
// families. random == 0 is exactly CorpusGraphs(seed).
func AugmentedCorpusGraphs(seed int64, random int) []*Graph {
	return workload.AugmentedCorpusGraphs(seed, random)
}

// Method selects a partitioning strategy for Planner.Plan.
type Method string

// Available strategies.
const (
	// MethodGreedy is the production compiler's O(N) heuristic.
	MethodGreedy Method = "greedy"
	// MethodRandom is random search through the constraint solver.
	MethodRandom Method = "random"
	// MethodSA is simulated annealing over solver input distributions.
	MethodSA Method = "sa"
	// MethodRL trains the constrained-RL partitioner from scratch.
	MethodRL Method = "rl"
	// MethodZeroShot deploys the planner's pre-trained policy with no
	// weight updates — the paper's "RL Zeroshot" configuration. Requires
	// Planner.Pretrain or Planner.LoadPolicy first.
	MethodZeroShot Method = "zeroshot"
	// MethodFineTune continues PPO training of the planner's pre-trained
	// policy on the target graph — the paper's "RL Finetuning"
	// configuration. Requires Planner.Pretrain or Planner.LoadPolicy
	// first.
	MethodFineTune Method = "finetune"
	// MethodAnalytic is the static-analysis fast path: a propagation-based
	// analysis (internal/analyze) constructs a valid contiguous layout in
	// near-linear time with no per-candidate evaluation — the only method
	// that scales to 100k-node graphs. Deterministic; ignores SampleBudget.
	MethodAnalytic Method = "analytic"
)

// usesPolicy reports whether m deploys the installed pre-trained policy:
// such a plan needs one, runs with its network shape, and is keyed by its
// fingerprint. Every other method never consults a policy.
func (m Method) usesPolicy() bool { return m == MethodZeroShot || m == MethodFineTune }

// seedOrDefault is the one spelling of "Seed 0 selects the default seed 1".
func seedOrDefault(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// Result is the outcome of a plan.
type Result struct {
	// Partition is the best valid partition found.
	Partition Partition
	// Throughput is its evaluated throughput (inferences/s).
	Throughput float64
	// Improvement is Throughput normalized to the greedy heuristic.
	Improvement float64
	// Samples is the number of evaluations consumed.
	Samples int
	// History is the best-so-far improvement ratio after every sample —
	// the curve the paper's figures plot (History[Samples-1] ==
	// Improvement).
	History []float64
	// FailCounts tallies rejected samples by failure reason (nil when
	// every sample was valid).
	FailCounts map[string]int
}

// SamplesToImprovement returns the number of samples the plan needed to
// first reach the given improvement over the greedy baseline, and whether
// it was reached at all — the "samples to quality" metric of the paper's
// Tables 2 and 3.
func (r *Result) SamplesToImprovement(threshold float64) (int, bool) {
	for i, v := range r.History {
		if v >= threshold {
			return i + 1, true
		}
	}
	return 0, false
}

// Evaluate runs a partition on the hardware simulator, returning throughput,
// per-resource utilization and the dynamic-constraint verdict. It uses
// simulator seed 1 — the same value PlanOptions.Seed defaults to (Seed 0 is
// remapped to 1) — so a plan run with default options and its Evaluate
// check agree on the simulated hardware instance. Seeds only influence
// measurement noise (Simulator.Measure), never the noise-free Evaluate
// verdict, so this choice is about consistency, not numbers. Use
// Planner.Assess to pick the environment and seed explicitly.
func Evaluate(g *Graph, pkg *Package, p Partition) HardwareResult {
	return hwsim.New(pkg, hwsim.Options{Seed: 1}).Evaluate(g, p)
}

// EstimateThroughput runs the analytical cost model (no memory checking).
func EstimateThroughput(g *Graph, pkg *Package, p Partition) float64 {
	return costmodel.New(pkg).Throughput(g, p)
}

// Validate checks a partition against the static hardware constraints,
// including transfer routability on the package's interconnect topology.
func Validate(g *Graph, pkg *Package, p Partition) error {
	return p.ValidateOn(g, pkg)
}
