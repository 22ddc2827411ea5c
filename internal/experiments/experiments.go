// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. 5). Each experiment is a pure function from a
// configuration to a result struct with a Format method that prints the
// same rows/series the paper reports; cmd/mcmexp and the repository-root
// benchmarks are thin wrappers around this package.
//
// Experiments run at two scales: ScaleQuick (default; minutes on one CPU
// core, reduced sample budgets and network sizes) and ScaleFull (the
// paper's budgets and the paper's 8x128 network). DESIGN.md records
// measured results for both the shapes and the deltas against the paper.
package experiments

import (
	"fmt"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
)

// Scale selects experiment budgets.
type Scale int

const (
	// ScaleQuick runs reduced budgets sized for a single CPU core.
	ScaleQuick Scale = iota
	// ScaleFull runs the paper's budgets (5000/800 samples, 20000
	// pre-training samples, the 8x128 network).
	ScaleFull
)

// ParseScale converts a CLI flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick", "":
		return ScaleQuick, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (quick or full)", s)
}

// Method identifies a search strategy in the figures.
type Method string

// The five strategies of Figures 5 and 6.
const (
	MethodRandom     Method = "Random"
	MethodSA         Method = "SA"
	MethodRL         Method = "RL"
	MethodZeroshot   Method = "RL Zeroshot"
	MethodFinetuning Method = "RL Finetuning"
)

// Methods lists the strategies in the paper's legend order.
var Methods = []Method{MethodRandom, MethodSA, MethodRL, MethodZeroshot, MethodFinetuning}

// newEnv wires a graph to a partitioner, an evaluator and the greedy
// baseline, producing an RL/search environment. The partitioner factory
// enables concurrent rollout collection (one solver replica per worker).
func newEnv(g *graph.Graph, pkg *mcm.Package, ev eval.Evaluator) (*rl.Env, error) {
	pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: partitioner for %s: %w", g.Name(), err)
	}
	base := search.GreedyPackage(g, pkg)
	bv := ev.Assess(g, base)
	if !bv.Valid || bv.Throughput <= 0 {
		return nil, fmt.Errorf("experiments: greedy baseline invalid on %s", g.Name())
	}
	env := rl.NewEnv(rl.NewGraphContext(g), pr, ev, bv.Throughput)
	env.UseSampleMode = true
	env.PartFactory = func() (cpsolver.Partitioner, error) {
		return cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
	}
	return env, nil
}

// policyConfig returns the network shape for a scale.
func policyConfig(scale Scale, chips int) rl.Config {
	if scale == ScaleFull {
		return rl.DefaultConfig(chips)
	}
	return rl.QuickConfig(chips)
}

// ppoConfig returns the PPO hyper-parameters for a scale.
func ppoConfig(scale Scale) rl.PPOConfig {
	if scale == ScaleFull {
		return rl.DefaultPPOConfig()
	}
	return rl.QuickPPOConfig()
}
