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
// distribution once per Encoding). A Deployment keeps that encoding from
// one call to the next.
//
// Cancelling ctx stops the loop before the next sample and returns
// ctx.Err(); the environment keeps its best-so-far trajectory.
//
// Its one caller is bench/probes.go, which only ROADMAP item 1 may edit;
// item 1(b) points that probe at Deployment.ZeroShot and deletes this.
func ZeroShot(ctx context.Context, policy *Policy, env *Env, budget int, rng *rand.Rand) error {
	enc := policy.Encode(new(Encoding), env.Ctx)
	return zeroShot(ctx, policy, enc, unassigned(env.Ctx.G.NumNodes()), env, budget, rng)
}

// zeroShot is ZeroShot on an encoding of env's graph under policy's weights,
// from the t=0 state start, which every episode shares: Heads only reads
// both. SAMPLE mode's matrix and the raw draw are policy's scratch, which
// the next call on policy overwrites whole.
func zeroShot(ctx context.Context, policy *Policy, enc *Encoding, start []int, env *Env, budget int, rng *rand.Rand) error {
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
				policy.mixed = MixedProbRows(policy.mixed, f.Probs, env.ExploreEps())
				env.StepProbs(policy.mixed, rng)
				policy.drawn = sampleActionsInto(policy.drawn, f.Probs, rng)
			} else {
				policy.drawn = sampleActionsInto(policy.drawn, f.Probs, rng)
				env.StepActions(policy.drawn, rng)
			}
			prev = policy.drawn
		}
	}
	return nil
}

// Deployment is what a deployed policy keeps of one graph from one plan to
// the next: the graph's context, and its Encoding under the policy's
// weights with the all-unassigned state's distribution already filled. The
// embedding depends on the graph and the weights alone (Figure 3), so every
// zero-shot plan of the graph under those weights reads the same record.
//
// Nothing writes to a Deployment after NewDeployment returns, so any number
// of plans may read it at once, each on its own policy (a policy's scratch
// serves one caller) holding the weights the deployment was built under. It
// is valid for exactly as long as those weights are: whoever keeps one
// keys it by them and drops it when they are replaced.
type Deployment struct {
	Ctx   *GraphContext
	enc   Encoding
	start []int // the t=0 state, every episode's
	bytes int64 // Bytes' estimate
}

// NewDeployment encodes ctx's graph under policy's weights and fills the
// start state's distribution. policy's scratch is overwritten; its weights
// are only read.
func NewDeployment(policy *Policy, ctx *GraphContext) *Deployment {
	g := ctx.G
	d := &Deployment{Ctx: ctx, start: unassigned(g.NumNodes())}
	policy.Heads(policy.Encode(&d.enc, ctx), d.start)
	// The estimate Bytes reports: the context (GraphContext.Bytes) and the
	// record — every layer's aggregate and output, the embedding product,
	// the start distribution and its logarithm — and the start state.
	d.bytes = ctx.Bytes() + policy.recordBytes(&d.enc, false) + words(int64(g.NumNodes()))
	return d
}

// ZeroShot is the package-level ZeroShot from the deployment's encoding:
// env must run on the deployment's context, and policy must hold the
// weights the deployment was built under. It plans bit for bit what
// ZeroShot plans on a fresh encoding.
func (d *Deployment) ZeroShot(ctx context.Context, policy *Policy, env *Env, budget int, rng *rand.Rand) error {
	if env.Ctx != d.Ctx {
		panic("rl: a deployment's zero-shot plan on an environment of another context")
	}
	return zeroShot(ctx, policy, &d.enc, d.start, env, budget, rng)
}

// Bytes estimates what the deployment holds, from its shapes (see
// NewDeployment).
func (d *Deployment) Bytes() int64 { return d.bytes }
