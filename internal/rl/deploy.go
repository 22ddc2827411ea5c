package rl

import (
	"context"
	"math/rand"
)

// ZeroShot deploys a (pre-trained) policy on an environment without any
// weight updates — the paper's "RL Zeroshot" configuration: run T-step
// refinement episodes, handing each sampled assignment to the solver, until
// the evaluation budget is consumed. The environment's History records the
// best-so-far curve.
//
// No weight changes during deployment, so the graph is encoded once and
// every sample costs only the policy head — and every episode's first
// sample not even that much of it (Heads computes the start state's
// distribution once per Encoding).
//
// Cancelling ctx stops the loop before the next sample and returns
// ctx.Err(); the environment keeps its best-so-far trajectory.
func ZeroShot(ctx context.Context, policy *Policy, env *Env, budget int, rng *rand.Rand) error {
	enc := policy.Encode(new(Encoding), env.Ctx)
	var mixed [][]float64 // SAMPLE mode's matrix, rewritten per sample
	var drawn []int       // SAMPLE mode's raw action draw: the next Heads reads it, nothing keeps it
	// Every episode's t=0 state, shared: Heads only reads it.
	start := unassigned(env.Ctx.G.NumNodes())
	for env.Samples < budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		prev := start
		for step := 0; step < policy.Cfg.Iterations && env.Samples < budget; step++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f := policy.Heads(enc, prev)
			if env.UseSampleMode {
				mixed = MixedProbRows(mixed, f.Probs, env.ExploreEps())
				env.StepProbs(mixed, rng)
				drawn = sampleActionsInto(drawn, f.Probs, rng)
				prev = drawn
			} else {
				y := SampleActions(f.Probs, rng)
				env.StepActions(y, rng)
				prev = y
			}
		}
	}
	return nil
}

// FineTune continues PPO training of a (pre-trained) policy on a single
// environment until the evaluation budget is consumed — the paper's
// "RL Finetuning" configuration. Cancellation follows TrainUntil's
// contract: stats so far plus ctx.Err(), best-so-far kept on the
// environment.
func FineTune(ctx context.Context, policy *Policy, env *Env, cfg PPOConfig, budget int, rng *rand.Rand) ([]IterationStats, error) {
	trainer := NewTrainer(policy, cfg, rng)
	return trainer.TrainUntil(ctx, []*Env{env}, budget)
}
