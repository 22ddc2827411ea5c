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

// stepBufs is what one (episode, step) of a batch draws into: the solver's
// partition and the raw FIX-mode draw. Each (episode, step) has a pair of its
// own, not each episode: the next step's Heads reads this step's state, a
// transition keeps its state and action until the batch's update, and the
// environment absorbs the partition once collection ends. The trainer keeps
// them from one batch to the next, and across Restart.
type stepBufs struct {
	part, raw []int
}

// rolloutWorker is what a rollout worker beyond the first owns: a clone of
// the trainer's policy (a policy's scratch serves one caller at a time),
// brought up to date at the start of every batch, that clone's activation
// records, and a replica of each environment's partitioner (Solver and
// Segmenter keep per-solve scratch). The trainer keeps them from one batch
// to the next, and across Restart from one run to the next.
// The first worker runs on the trainer's own policy and records and on the
// environments' own partitioners.
type rolloutWorker struct {
	pol   *Policy
	encs  encodings
	parts []replica // by environment index
}

// replica is a partitioner Env.PartFactory built for env.
type replica struct {
	env  *Env
	part cpsolver.Partitioner
}

// partFor returns w's replica of the partitioner of env, the batch's
// environment ei, building it when w holds none for env. A replica samples
// what a new one does from the same RNG stream, whatever it sampled before
// (the partitioners' contract), so it is kept for as long as env is.
func (w *rolloutWorker) partFor(env *Env, ei int) cpsolver.Partitioner {
	for len(w.parts) <= ei {
		w.parts = append(w.parts, replica{})
	}
	r := &w.parts[ei]
	if r.env != env {
		part, err := env.PartFactory()
		if err != nil {
			// Replica construction re-runs a constructor that already
			// succeeded for env.Part; a failure here is a programming
			// error, not an input condition.
			panic("rl: PartFactory failed: " + err.Error())
		}
		*r = replica{env: env, part: part}
	}
	return r.part
}

// collect gathers Cfg.Rollouts episodes, fanning them across the workers the
// process budget grants (package parallel's doc comment). Determinism
// contract: episode r derives its RNG from (iterSeed, r) and starts from
// the environments' state at collection start, so the batch is bit-for-bit
// identical on one worker and on N; only wall-clock changes. Worker w
// beyond the first runs on its own policy clone and partitioner replicas
// built by Env.PartFactory (t.clones[w-1], built in the first batch w runs
// in). Environments without a factory force serial collection (same code
// path, same results). No weight changes during collection, so each worker
// encodes each of its graphs once for the whole batch. Episode r draws into
// t.steps[r], which only its worker touches.
func (t *Trainer) collect(envs []*Env) []episodeResult {
	rollouts := t.Cfg.Rollouts
	iterSeed := t.rng.Int63()
	fanout := rollouts
	if !forkable(envs) {
		fanout = 1
	}
	// Exploration weights at collection start: every episode in this batch
	// samples under the same weight snapshot regardless of worker count.
	// Every episode starts from its environment's all-unassigned state,
	// which episodes and transitions only read, so the batch shares one.
	eps0, starts := make([]float64, len(envs)), make([][]int, len(envs))
	for i, e := range envs {
		eps0[i], starts[i] = e.ExploreEps(), unassigned(e.Ctx.G.NumNodes())
	}
	for len(t.clones) < fanout-1 {
		t.clones = append(t.clones, nil)
	}
	for len(t.steps) < rollouts {
		t.steps = append(t.steps, make([]stepBufs, t.Policy.Cfg.Iterations))
	}
	results := make([]episodeResult, rollouts)
	workers := parallel.ForEachBlock(fanout, rollouts, func(t *Trainer, w, lo, hi int) {
		pol, encs, worker := t.Policy, &t.encs, (*rolloutWorker)(nil)
		if w > 0 {
			if t.clones[w-1] == nil {
				t.clones[w-1] = &rolloutWorker{pol: NewPolicy(t.Policy.Cfg, nil)}
			}
			worker = t.clones[w-1]
			pol, encs = worker.pol, &worker.encs
			pol.copyWeights(t.Policy)
		}
		encs.begin(len(envs))
		for r := lo; r < hi; r++ {
			ei := r % len(envs)
			env := envs[ei]
			part := env.Part
			if worker != nil && usesSolver(env) {
				part = worker.partFor(env, ei)
			}
			results[r] = runEpisode(pol, encs.of(pol, ei, env.Ctx), env, ei, starts[ei], part, t.steps[r], eps0[ei], parallel.Rng(iterSeed, r))
		}
	}, t)
	t.lanes = workers - 1
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
// reads. Step t draws into bufs[t], and the matrix SAMPLE mode hands the
// solver is pol's mixed scratch, which only the calling worker runs on. The
// exploration weight evolves locally from eps by the same law the
// environment applies, and all randomness comes from rng.
func runEpisode(pol *Policy, enc *Encoding, env *Env, ei int, prev []int, part cpsolver.Partitioner, bufs []stepBufs, eps float64, rng *rand.Rand) episodeResult {
	T := pol.Cfg.Iterations
	res := episodeResult{
		transitions: make([]transition, 0, T),
		steps:       make([]stepOutcome, 0, T),
	}
	rewards := make([]float64, 0, T)
	for step := 0; step < T; step++ {
		f := pol.Heads(enc, prev)
		b := &bufs[step]
		var y []int
		var out stepOutcome
		if env.UseSampleMode {
			// Algorithm 1: the solver samples from P; credit the emitted
			// partition as the action.
			pol.mixed = MixedProbRows(pol.mixed, f.Probs, eps)
			out = env.sample(part, true, pol.mixed, nil, b.part, rng)
			if y = out.p; y == nil {
				b.raw = sampleActionsInto(b.raw, f.Probs, rng)
				y = b.raw
			}
		} else {
			// Algorithm 2 (FIX, the paper's default for RL): the raw
			// sample is the action, the solver repairs it.
			b.raw = sampleActionsInto(b.raw, f.Probs, rng)
			y = b.raw
			out = env.sample(part, false, nil, y, b.part, rng)
		}
		if out.p != nil {
			b.part = out.p
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
