package rl

import (
	"math/rand"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/parallel"
)

// episodeResult is everything one T-step episode contributes to the PPO
// batch: its transitions (with rewards-to-go already filled in) and the
// per-step evaluation outcomes for the environment trajectory.
type episodeResult struct {
	transitions []transition
	steps       []stepOutcome
}

// rolloutWorker is what a rollout worker beyond the first owns: a clone of
// the trainer's policy (a policy's scratch serves one caller at a time),
// brought up to date at the start of every batch, and that clone's
// activation records. The trainer keeps them from one batch to the next.
type rolloutWorker struct {
	pol  *Policy
	encs encodings
}

// collect gathers Cfg.Rollouts episodes, fanning them across the lanes the
// process budget grants (package parallel's doc comment). Determinism
// contract: episode r derives its RNG from (iterSeed, r) and starts from
// the environments' state at collection start, so the batch is bit-for-bit
// identical on one worker and on N; only wall-clock changes. Each worker
// runs on its own policy clone and, when more than one worker is active, on
// partitioner replicas built by Env.PartFactory. Environments without a
// factory force serial collection (same code path, same results). No weight
// changes during collection, so each worker encodes each of its graphs once
// for the whole batch.
func (t *Trainer) collect(envs []*Env) []episodeResult {
	rollouts := t.Cfg.Rollouts
	iterSeed := t.rng.Int63()
	fanout := rollouts
	if !forkable(envs) {
		fanout = 1
	}
	lanes := parallel.AcquireLanes(fanout - 1)
	defer parallel.ReleaseLanes(lanes)
	// Exploration weights at collection start: every episode in this batch
	// samples under the same weight snapshot regardless of worker count.
	// Every episode starts from its environment's all-unassigned state,
	// which episodes and transitions only read, so the batch shares one.
	eps0, starts := make([]float64, len(envs)), make([][]int, len(envs))
	for i, e := range envs {
		eps0[i], starts[i] = e.ExploreEps(), unassigned(e.Ctx.G.NumNodes())
	}
	for len(t.clones) < lanes {
		t.clones = append(t.clones, &rolloutWorker{pol: NewPolicy(t.Policy.Cfg, nil)})
	}
	results := make([]episodeResult, rollouts)
	parallel.ForEachBlock(lanes+1, rollouts, func(w, lo, hi int) {
		pol, encs := t.Policy, &t.encs
		var replicas map[int]cpsolver.Partitioner
		if lanes > 0 {
			// Workers beyond the first need private policy scratch; every
			// worker needs private solver scratch, covered by replicas.
			if w > 0 {
				pol, encs = t.clones[w-1].pol, &t.clones[w-1].encs
				pol.copyWeights(t.Policy)
			}
			replicas = make(map[int]cpsolver.Partitioner)
		}
		encs.begin(len(envs))
		var mixed [][]float64 // this worker's SAMPLE-mode matrix
		for r := lo; r < hi; r++ {
			ei := r % len(envs)
			env := envs[ei]
			part := env.Part
			if replicas != nil && usesSolver(env) {
				rep, ok := replicas[ei]
				if !ok {
					var err error
					rep, err = env.PartFactory()
					if err != nil {
						// Replica construction re-runs a constructor that
						// already succeeded for env.Part; a failure here is
						// a programming error, not an input condition.
						panic("rl: PartFactory failed: " + err.Error())
					}
					replicas[ei] = rep
				}
				part = rep
			}
			results[r] = runEpisode(pol, encs.of(pol, ei, env.Ctx), env, ei, starts[ei], part, &mixed, eps0[ei], parallel.Rng(iterSeed, r))
		}
	})
	return results
}

// usesSolver reports whether episodes on this environment drive the
// partitioner. NoSolver only bypasses the solver on the FIX path; SAMPLE
// mode always solves (matching the serial semantics of Env.StepProbs).
func usesSolver(e *Env) bool { return !e.NoSolver || e.UseSampleMode }

// forkable reports whether every environment supports concurrent episode
// collection: a partitioner factory for replicas, or no solver involvement.
func forkable(envs []*Env) bool {
	for _, e := range envs {
		if e.PartFactory == nil && usesSolver(e) {
			return false
		}
	}
	return true
}

// runEpisode runs one T-step refinement episode (Eq. 7) against an
// environment snapshot without mutating it: sample y(t) from
// P(t) = pi(. | G, y(t-1)), hand it to the solver, evaluate the corrected
// partition. enc is the environment's graph (index ei in the batch) encoded
// under pol's weights, and prev its t=0 state, which the episode only
// reads. mixed is the calling worker's buffer for the matrix
// SAMPLE mode hands the solver. The exploration weight evolves locally from
// eps by the same law the environment applies, and all randomness comes from
// rng.
func runEpisode(pol *Policy, enc *Encoding, env *Env, ei int, prev []int, part cpsolver.Partitioner, mixed *[][]float64, eps float64, rng *rand.Rand) episodeResult {
	T := pol.Cfg.Iterations
	res := episodeResult{
		transitions: make([]transition, 0, T),
		steps:       make([]stepOutcome, 0, T),
	}
	rewards := make([]float64, 0, T)
	for step := 0; step < T; step++ {
		f := pol.Heads(enc, prev)
		var y []int
		var out stepOutcome
		if env.UseSampleMode {
			// Algorithm 1: the solver samples from P; credit the emitted
			// partition as the action.
			*mixed = MixedProbRows(*mixed, f.Probs, eps)
			out = env.sample(part, true, *mixed, nil, rng)
			if y = out.p; y == nil {
				y = SampleActions(f.Probs, rng)
			}
		} else {
			// Algorithm 2 (FIX, the paper's default for RL): the raw
			// sample is the action, the solver repairs it.
			y = SampleActions(f.Probs, rng)
			out = env.sample(part, false, nil, y, rng)
		}
		logp := JointLogProb(f.LogProbs, y)
		res.transitions = append(res.transitions, transition{
			env:    env,
			ei:     ei,
			prev:   prev,
			action: y,
			logp:   logp,
			value:  f.Value,
		})
		res.steps = append(res.steps, out)
		th := out.v.Throughput
		if !out.v.Valid {
			th = 0
		}
		rewards = append(rewards, th/env.Baseline)
		eps = nextExploreEps(eps, th)
		prev = y
	}
	// Reward-to-go with gamma = 1 across the T refinement steps.
	acc := 0.0
	for i := len(rewards) - 1; i >= 0; i-- {
		acc += rewards[i]
		res.transitions[i].ret = acc
	}
	return res
}
