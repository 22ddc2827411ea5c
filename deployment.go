package mcmpart

import (
	"sync"

	"mcmpart/internal/eval"
	"mcmpart/internal/rl"
)

// deploymentBytes bounds what one installed policy keeps of the graphs it
// planned (Deployment.Bytes plus KitBytes per idle kit): room for a few
// dozen BERT-sized graphs, or one 10k-node graph with an idle kit per vCPU.
// A deployment that alone exceeds it is not kept.
const deploymentBytes = 64 << 20

// deployments is the set of per-graph deployments of one installed policy
// (policySnapshot.deployments): each graph's rl.Deployment and a free list
// of idle kits on its context, so that a repeat graph's zero-shot plan
// neither encodes it, nor fills its start distribution, nor builds an
// environment, nor clones the policy and sizes the clone's scratch
// (DESIGN.md §8, "What outlives a request"). It belongs to one
// snapshot, so it lives exactly as long as the weights that made its
// records: an install starts an empty set, and plans still running under
// the old snapshot finish on the old one.
//
// A graph finds a deployment only when it is Identical to the graph the
// deployment was built from (a clone, so no caller can change it). The set
// keeps at most limit estimated bytes, evicting the least recently used.
type deployments struct {
	limit int64 // deploymentBytes; a test bounds its own set tighter

	mu    sync.Mutex
	kept  []*deployment // guarded by mu; most recently used first
	bytes int64         // guarded by mu; what kept holds, idle kits included
}

// deployment is one graph's entry in a set.
type deployment struct {
	*rl.Deployment
	idle []kit // guarded by deployments.mu
	kept bool  // guarded by deployments.mu; in the set's kept list
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

func newDeployments() *deployments { return &deployments{limit: deploymentBytes} }

// take returns g's deployment, moved to the front, and one of its idle
// kits (the zero kit when none is idle); nil when none is kept.
func (s *deployments) take(g *Graph) (*deployment, kit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, d := range s.kept {
		if !d.Ctx.G.Identical(g) {
			continue
		}
		copy(s.kept[1:i+1], s.kept[:i])
		s.kept[0] = d
		n := len(d.idle)
		if n == 0 {
			return d, kit{}
		}
		k := d.idle[n-1]
		d.idle[n-1] = kit{}
		d.idle = d.idle[:n-1]
		s.bytes -= d.KitBytes()
		return d, k
	}
	return nil, kit{}
}

// add keeps dep, built for a graph take found nothing for, when it fits —
// unless a plan of the same graph kept one in between, whose entry stays —
// and returns its entry, kept or not.
func (s *deployments) add(dep *rl.Deployment) *deployment {
	d := &deployment{Deployment: dep}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.kept {
		if k.Ctx.G.Identical(dep.Ctx.G) {
			return d
		}
	}
	if s.makeRoom(dep.Bytes(), nil) {
		s.kept = append(s.kept, nil)
		copy(s.kept[1:], s.kept)
		s.kept[0] = d
		s.bytes += dep.Bytes()
		d.kept = true
	}
	return d
}

// put returns k, which a plan on d's context has finished with, to d's
// idle list, its environment Reset so that it holds no trajectory and calls
// no earlier request's callback. A kit of a deployment that is no longer
// kept, or that does not fit, is dropped.
func (s *deployments) put(d *deployment, k kit) {
	k.env.Reset()
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.kept && s.makeRoom(d.KitBytes(), d) {
		d.idle = append(d.idle, k)
		s.bytes += d.KitBytes()
	}
}

// counted returns the bytes the set counts against its bound; 0 for the nil
// set of a snapshot with no policy.
func (s *deployments) counted() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// makeRoom evicts the least recently used deployments other than keep
// until need more bytes fit the bound, and reports whether they do.
func (s *deployments) makeRoom(need int64, keep *deployment) bool {
	if need > s.limit {
		return false
	}
	for i := len(s.kept) - 1; i >= 0 && s.bytes+need > s.limit; i-- {
		d := s.kept[i]
		if d == keep {
			continue
		}
		s.bytes -= d.Bytes() + int64(len(d.idle))*d.KitBytes()
		d.idle, d.kept = nil, false
		s.kept = append(s.kept[:i], s.kept[i+1:]...)
	}
	return s.bytes+need <= s.limit
}

// deploy returns g's deployment under installed's policy and a kit on its
// context, its environment evaluating with ev against baseTh in SAMPLE mode
// — the configuration the deployed-policy methods run in. A kit is an idle
// one when the deployment has one, and otherwise a new environment and a
// fresh clone of the installed policy. When no deployment of g is kept it
// builds one on a clone of g with the kit's clone; reused reports that one
// was kept. The caller hands the kit back with put once its plan is done.
func (pl *Planner) deploy(g *Graph, installed policySnapshot, ev eval.Evaluator, baseTh float64) (d *deployment, k kit, reused bool, err error) {
	d, k = installed.deployments.take(g)
	reused = d != nil
	if k.policy == nil {
		k.policy = installed.policy.Clone()
	}
	if d == nil {
		d = installed.deployments.add(rl.NewDeployment(k.policy, pl.graphContext(g.Clone(), k.policy.Cfg)))
	}
	if k.env == nil {
		ctx := d.Ctx
		if k.env, err = pl.buildEnv(ctx.G, ctx, ev, baseTh); err != nil {
			return nil, kit{}, false, err
		}
	}
	k.env.Eval, k.env.Baseline, k.env.UseSampleMode = ev, baseTh, true
	return d, k, reused, nil
}
