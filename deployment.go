package mcmpart

import (
	"mcmpart/internal/eval"
	"mcmpart/internal/rl"
)

// deploymentBytes bounds what one installed policy keeps of the graphs it
// planned (Deployment.Bytes plus each idle kit as put weighed it): room for
// a few dozen BERT-sized graphs, two with a fine-tuned kit (≈24 MB) each, or
// one 10k-node graph with a kit per vCPU. A deployment that alone exceeds it
// is not kept.
const deploymentBytes = 64 << 20

// newDeployments returns the empty set of per-graph deployments an install
// starts (policySnapshot.deployments): each graph's rl.Deployment and a
// free list of idle kits on its context (a kitPool), so that a repeat
// graph's deployed-policy plan neither encodes it, nor fills its start
// distribution, nor builds an environment, a clone or a trainer and sizes
// their scratch (DESIGN.md §8, "What outlives a request"). It belongs to one
// snapshot, so it lives exactly as long as the weights that made its
// records, and plans still running under an old snapshot finish on the old
// one.
func newDeployments() *planCache[[32]byte, *deployment] {
	return newKitStore[*rl.Deployment](deploymentBytes)
}

// deployment is one graph's entry in a set: its rl.Deployment and idle
// kits, each an environment on its context and a clone of the policy it was
// built under, for a zero-shot plan to run on (and a fine-tune plan's
// trainer, which trains its own policy). An idle kit's clone holds those
// weights unchanged, so a kit planned on before plans what a fresh one does.
type deployment = kitPool[*rl.Deployment]

// deploy returns g's deployment under installed's policy and a kit on its
// context, its environment evaluating with ev against baseTh in SAMPLE mode
// — the configuration the deployed-policy methods run in. A kit is an idle
// one when the deployment has one, and otherwise a new environment and a
// fresh clone of the installed policy; a new deployment is built with the
// clone of the kit the plan runs on. reused reports that the set held g's
// deployment. The caller hands the kit back with put once its plan is done.
func (pl *Planner) deploy(g *Graph, installed policySnapshot, ev eval.Evaluator, baseTh float64) (d *deployment, k kit, reused bool, err error) {
	var policy *rl.Policy
	d, k, reused = takeKit(installed.deployments, g, func(clone *Graph) (*rl.Deployment, int64) {
		policy = installed.policy.Clone()
		dep := rl.NewDeployment(policy, pl.graphContext(clone, policy.Cfg))
		return dep, dep.Bytes()
	})
	if k.env == nil {
		if policy == nil {
			policy = installed.policy.Clone()
		}
		ctx := d.base.Ctx
		env, err := pl.buildEnv(ctx.G, ctx, ev, baseTh)
		if err != nil {
			return nil, kit{}, false, err
		}
		k = kit{env: env, policy: policy}
	}
	k.env.Eval, k.env.Baseline, k.env.UseSampleMode = ev, baseTh, true
	return d, k, reused, nil
}
