package mcmpart

import (
	"mcmpart/internal/eval"
	"mcmpart/internal/rl"
)

// deploymentBytes bounds what one installed policy keeps of the graphs it
// planned (Deployment.Bytes plus KitBytes per idle kit): room for a few
// dozen BERT-sized graphs, or one 10k-node graph with a kit per vCPU. A
// deployment that alone exceeds it is not kept.
const deploymentBytes = 64 << 20

// newDeployments returns the empty set of per-graph deployments an install
// starts (policySnapshot.deployments): each graph's rl.Deployment and a
// free list of idle kits on its context (a kitPool), so that a repeat
// graph's zero-shot plan neither encodes it, nor fills its start
// distribution, nor builds an environment, nor clones the policy and sizes
// the clone's scratch (DESIGN.md §8, "What outlives a request"). It belongs
// to one snapshot, so it lives exactly as long as the weights that made its
// records, and plans still running under an old snapshot finish on the old
// one.
func newDeployments() *planCache[string, *deployment] {
	return newKitStore[*rl.Deployment, kit](deploymentBytes)
}

// deployment is one graph's entry in a set: its rl.Deployment and idle kits.
type deployment = kitPool[*rl.Deployment, kit]

// kit is what one deployed-policy plan of a deployment's graph runs on
// besides the deployment: an environment on its context, and a clone of the
// policy the deployment was built under, for a zero-shot plan to run on. An
// idle kit's environment is Reset and its clone holds those weights
// unchanged — a fine-tune plan trains a clone of its own — so a kit planned
// on before plans what a fresh one does.
type kit struct {
	env    *rl.Env
	policy *rl.Policy
	bytes  int64 // KitBytes of its deployment
}

func (k kit) environment() *rl.Env { return k.env }
func (k kit) size() int64          { return k.bytes }

// deploy returns g's deployment under installed's policy and a kit on its
// context, its environment evaluating with ev against baseTh in SAMPLE mode
// — the configuration the deployed-policy methods run in. A kit is an idle
// one when the deployment has one, and otherwise a new environment and a
// fresh clone of the installed policy. When the set holds no deployment of
// g it builds one on a clone of g with the kit's clone, which replaces
// whatever the set holds under g's fingerprint; reused reports that one was
// held. The caller hands the kit back with put once its plan is done.
func (pl *Planner) deploy(g *Graph, installed policySnapshot, ev eval.Evaluator, baseTh float64) (d *deployment, k kit, reused bool, err error) {
	set := installed.deployments
	if d, reused = kitPoolOf(set, g); reused {
		k, _ = d.take(set)
	}
	if k.policy == nil {
		k.policy = installed.policy.Clone()
	}
	if !reused {
		clone := g.Clone()
		dep := rl.NewDeployment(k.policy, pl.graphContext(clone, k.policy.Cfg))
		d = addKitPool[*rl.Deployment, kit](set, g.Fingerprint(), clone, dep, dep.Bytes())
	}
	if k.env == nil {
		ctx := d.base.Ctx
		if k.env, err = pl.buildEnv(ctx.G, ctx, ev, baseTh); err != nil {
			return nil, kit{}, false, err
		}
		k.bytes = d.base.KitBytes()
	}
	k.env.Eval, k.env.Baseline, k.env.UseSampleMode = ev, baseTh, true
	return d, k, reused, nil
}
