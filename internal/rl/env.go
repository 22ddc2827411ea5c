package rl

import (
	"math"
	"math/rand"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/eval"
	"mcmpart/internal/partition"
)

// solverRejected is the verdict recorded for samples the constraint solver
// (or the raw-action validity check of the no-solver baseline) rejected
// before they ever reached an evaluation environment.
var solverRejected = eval.Verdict{FailReason: "no valid partition produced"}

// Env is the partitioning environment of Figure 1: it turns policy outputs
// into valid partitions through the constraint solver, evaluates them in an
// evaluation environment (the analytical cost model in pre-training, the
// hardware simulator in deployment), and tracks the search trajectory (best
// partition and the best-so-far curve per evaluated sample that the
// experiment figures plot).
type Env struct {
	Ctx  *GraphContext
	Part cpsolver.Partitioner
	// Eval is the evaluation environment. It must be safe for concurrent
	// use (the cost model and hardware simulator are): rollout collection
	// evaluates samples on worker goroutines.
	Eval eval.Evaluator
	// Baseline is the throughput of the compiler heuristic the experiments
	// normalize against; rewards are improvement ratios over it.
	Baseline float64
	// UseSampleMode switches the solver from FIX mode (Algorithm 2, the
	// paper's choice for RL) to SAMPLE mode (Algorithm 1).
	UseSampleMode bool
	// NoSolver bypasses the constraint solver entirely (the paper's
	// "RL without constraint solver" baseline): raw actions are evaluated
	// directly and invalid ones earn zero reward.
	NoSolver bool
	// PartFactory builds an independent Partitioner replica over the same
	// instance. Concurrent rollout collection needs one replica per worker
	// (Solver and Segmenter keep per-solve scratch, so a single instance is
	// not safe for concurrent use); when nil, the trainer falls back to
	// serial collection on this environment — results are identical either
	// way, only wall-clock differs. Eval must be safe for concurrent use
	// whenever a factory is set (the cost model and hardware simulator are).
	PartFactory func() (cpsolver.Partitioner, error)

	// OnSample, when set, is invoked after every absorbed sample with the
	// cumulative sample count and the best-so-far improvement ratio — the
	// progress stream the public Planner API exposes. It always runs on
	// the goroutine driving the search (parallel rollout collection
	// absorbs its outcomes serially, in episode order), so implementations
	// need no locking of their own.
	OnSample func(samples int, bestImprovement float64)

	// Samples counts evaluations consumed (the x-axis of Figures 5 and 6).
	Samples int
	// Best tracks the best valid partition found and its throughput.
	Best           partition.Partition
	BestThroughput float64
	// History records the best-so-far improvement ratio after every
	// sample.
	History []float64
	// ValidSamples counts samples that passed all constraints.
	ValidSamples int
	// FailCounts tallies the FailReasons of rejected samples — the
	// observability the rich evaluation verdict buys (nil until the first
	// failure).
	FailCounts map[string]int

	// exploreEps is the adaptive uniform-mixing weight for policy
	// distributions: it escalates while samples earn zero reward (a
	// confidently wrong policy would otherwise starve of gradient) and
	// decays back to the floor once rewards flow.
	exploreEps float64
}

// NewEnv builds an environment; baseline must be the heuristic throughput
// used for reward normalization (> 0).
func NewEnv(ctx *GraphContext, part cpsolver.Partitioner, ev eval.Evaluator, baseline float64) *Env {
	if baseline <= 0 {
		panic("rl: non-positive baseline throughput")
	}
	return &Env{Ctx: ctx, Part: part, Eval: ev, Baseline: baseline, exploreEps: exploreFloor}
}

// Exploration mixing bounds.
const (
	exploreFloor = 0.1
	exploreCeil  = 1.0
)

// ExploreEps returns the current adaptive exploration weight.
func (e *Env) ExploreEps() float64 {
	if e.exploreEps == 0 {
		return exploreFloor
	}
	return e.exploreEps
}

// Prime evaluates and absorbs an externally constructed candidate — e.g. the
// analytic fast path's plan — as the search's first sample(s), so every
// subsequent method starts from that incumbent instead of from nothing. It
// consumes one unit of the sample budget trajectory and returns the reward.
func (e *Env) Prime(p partition.Partition) float64 {
	return e.absorb(p, e.Eval.Assess(e.Ctx.G, p))
}

// absorb records one already-evaluated sample into the trajectory and
// returns its reward. Parallel rollout collection evaluates samples on
// worker goroutines and then absorbs them here in deterministic episode
// order, so the trajectory (Samples, Best, History, exploration weight) is
// identical to a serial run.
func (e *Env) absorb(p partition.Partition, v eval.Verdict) float64 {
	th := v.Throughput
	if !v.Valid {
		th = 0
		if v.FailReason != "" {
			if e.FailCounts == nil {
				e.FailCounts = make(map[string]int)
			}
			e.FailCounts[v.FailReason]++
		}
	}
	e.Samples++
	if th > 0 {
		e.ValidSamples++
	}
	if th > e.BestThroughput {
		e.BestThroughput = th
		e.Best = p.Clone()
	}
	e.History = append(e.History, e.BestThroughput/e.Baseline)
	e.exploreEps = nextExploreEps(e.ExploreEps(), th)
	if e.OnSample != nil {
		e.OnSample(e.Samples, e.BestThroughput/e.Baseline)
	}
	return th / e.Baseline
}

// nextExploreEps advances the adaptive exploration weight after a sample
// with throughput th. Rollout workers apply the same law to their local
// copies so sampling inside an episode matches the serial trajectory.
func nextExploreEps(eps, th float64) float64 {
	if th == 0 {
		return math.Min(exploreCeil, eps*1.5)
	}
	return math.Max(exploreFloor, eps*0.8)
}

// stepOutcome is one evaluated environment sample: the corrected partition
// (nil when the solve failed or the raw sample was invalid) and its
// evaluation verdict. Rollout workers produce outcomes concurrently; they
// are absorbed into the environment in deterministic episode order.
type stepOutcome struct {
	p partition.Partition
	v eval.Verdict
}

// sample is the policy output → solver → evaluator step of Figure 1, run on
// part (e.Part, or a rollout worker's replica of it) without mutating e.
// With sampleMode the solver draws from probs (Algorithm 1; nil is uniform);
// otherwise it repairs the action vector y (Algorithm 2, FIX) or, under
// NoSolver, only checks it. A sample that yields no valid partition is
// solverRejected and never reaches the evaluator.
func (e *Env) sample(part cpsolver.Partitioner, sampleMode bool, probs [][]float64, y []int, rng *rand.Rand) stepOutcome {
	var p partition.Partition
	var err error
	switch {
	case sampleMode:
		p, err = part.SampleMode(probs, rng)
	case e.NoSolver:
		p = partition.Partition(y).Clone()
		err = p.Validate(e.Ctx.G, part.Chips())
	default:
		p, err = part.FixMode(y, rng)
	}
	if err != nil {
		return stepOutcome{v: solverRejected}
	}
	return stepOutcome{p: p, v: e.Eval.Assess(e.Ctx.G, p)}
}

// StepActions runs one environment step from a concrete action vector y:
// FIX-mode correction by default (or no correction with NoSolver), then
// evaluation. It returns the reward.
func (e *Env) StepActions(y []int, rng *rand.Rand) float64 {
	out := e.sample(e.Part, false, nil, y, rng)
	return e.absorb(out.p, out.v)
}

// StepProbs runs one environment step from a probability matrix through the
// solver's SAMPLE mode. It returns the reward.
func (e *Env) StepProbs(probs [][]float64, rng *rand.Rand) float64 {
	out := e.sample(e.Part, true, probs, nil, rng)
	return e.absorb(out.p, out.v)
}

// BestImprovement returns the best-so-far improvement over the baseline.
func (e *Env) BestImprovement() float64 { return e.BestThroughput / e.Baseline }

// Reset clears what a search set — its trajectory and progress callback —
// and keeps the graph, the solver (whose tables a later search reuses: it
// samples the same partitions from the same RNG stream whatever it sampled
// before), the evaluator and the baseline. A deployment's environment is
// Reset when its plan hands it back, and the next plan on it sets its own
// Eval, Baseline and OnSample.
func (e *Env) Reset() {
	e.OnSample = nil
	e.Samples = 0
	e.ValidSamples = 0
	e.Best = nil
	e.BestThroughput = 0
	e.History = nil
	e.FailCounts = nil
	e.exploreEps = exploreFloor
}
