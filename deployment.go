package mcmpart

import (
	"sync"

	"mcmpart/internal/eval"
	"mcmpart/internal/rl"
)

// deploymentBytes bounds what one installed policy keeps of the graphs it
// planned (Deployment.Bytes plus KitBytes per kit a deployment owns): room
// for a few dozen BERT-sized graphs, or one 10k-node graph with a kit per
// vCPU. A deployment that alone exceeds it is not kept.
const deploymentBytes = 64 << 20

// newDeployments returns the empty set of per-graph deployments an install
// starts (policySnapshot.deployments): each graph's rl.Deployment and a
// free list of idle kits on its context, so that a repeat graph's zero-shot
// plan neither encodes it, nor fills its start distribution, nor builds an
// environment, nor clones the policy and sizes the clone's scratch
// (DESIGN.md §8, "What outlives a request"). It belongs to one snapshot, so
// it lives exactly as long as the weights that made its records, and plans
// still running under an old snapshot finish on the old one.
//
// The set is keyed by graph fingerprint, and a graph finds the deployment
// under its fingerprint only when it is Identical to the graph the
// deployment was built from (a clone, so no caller can change it).
func newDeployments() *planCache[string, *deployment] {
	return newPlanCache[string](deploymentBytes, (*deployment).bytes)
}

// deployment is one graph's entry in a set. It owns the kits counted
// against the set's bound, idle or out on a plan, so that a kit moves the
// set's bytes only when it is built.
type deployment struct {
	*rl.Deployment
	mu    sync.Mutex
	idle  []kit // guarded by mu
	owned int   // guarded by mu; len(idle) <= owned
}

// kit is what one deployed-policy plan of a deployment's graph runs on
// besides the deployment: an environment on its context, and a clone of the
// policy the deployment was built under, for a zero-shot plan to run on. An
// idle kit's environment is Reset and its clone holds those weights
// unchanged — a fine-tune plan trains a clone of its own — so a kit planned
// on before plans what a fresh one does.
type kit struct {
	env    *rl.Env
	policy *rl.Policy
}

// bytes is what the set counts for d: the deployment and every kit it owns.
func (d *deployment) bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Bytes() + int64(d.owned)*d.KitBytes()
}

// take returns one of d's idle kits, the zero kit when none is idle.
func (d *deployment) take() kit {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.idle)
	if n == 0 {
		return kit{}
	}
	k := d.idle[n-1]
	d.idle[n-1] = kit{}
	d.idle = d.idle[:n-1]
	return k
}

// put returns k, which a plan on d's context has finished with, to d's idle
// list, its environment Reset so that it holds no trajectory and calls no
// earlier request's callback. d keeps as many idle kits as it owns; a kit
// beyond them is dropped.
func (d *deployment) put(k kit) {
	k.env.Reset()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.idle) < d.owned {
		d.idle = append(d.idle, k)
	}
}

// deploy returns g's deployment under installed's policy and a kit on its
// context, its environment evaluating with ev against baseTh in SAMPLE mode
// — the configuration the deployed-policy methods run in. A kit is an idle
// one when the deployment has one, and otherwise a new environment and a
// fresh clone of the installed policy, which the deployment owns if it fits
// and is then put again to be re-weighed. When the set holds no deployment
// of g it builds one on a clone of g with the kit's clone, which replaces
// whatever the set holds under g's fingerprint; reused reports that one was
// held. The caller hands the kit back with put once its plan is done.
func (pl *Planner) deploy(g *Graph, installed policySnapshot, ev eval.Evaluator, baseTh float64) (d *deployment, k kit, reused bool, err error) {
	set, fp := installed.deployments, g.Fingerprint()
	if d, reused = set.get(fp); reused && d.Ctx.G.Identical(g) {
		k = d.take()
	} else {
		reused = false
	}
	if k.policy == nil {
		k.policy = installed.policy.Clone()
	}
	if !reused {
		d = &deployment{Deployment: rl.NewDeployment(k.policy, pl.graphContext(g.Clone(), k.policy.Cfg))}
	}
	if k.env == nil {
		ctx := d.Ctx
		if k.env, err = pl.buildEnv(ctx.G, ctx, ev, baseTh); err != nil {
			return nil, kit{}, false, err
		}
		d.mu.Lock()
		if d.Bytes()+int64(d.owned+1)*d.KitBytes() <= set.limit {
			d.owned++
		}
		d.mu.Unlock()
		set.put(fp, d)
	}
	k.env.Eval, k.env.Baseline, k.env.UseSampleMode = ev, baseTh, true
	return d, k, reused, nil
}
