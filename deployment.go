package mcmpart

import (
	"sync"

	"mcmpart/internal/eval"
	"mcmpart/internal/rl"
)

// deploymentBytes bounds what one installed policy keeps of the graphs it
// planned (Deployment.Bytes plus EnvBytes per idle environment): room for a
// few dozen BERT-sized graphs, or one 10k-node graph with an idle
// environment per vCPU. A deployment that alone exceeds it is not kept.
const deploymentBytes = 64 << 20

// deployments is the set of per-graph deployments of one installed policy
// (policySnapshot.deployments): each graph's rl.Deployment and a free list
// of idle environments on its context, so that a repeat graph's zero-shot
// plan neither encodes it, nor fills its start distribution, nor builds an
// environment (DESIGN.md §8, "What outlives a request"). It belongs to one
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
	bytes int64         // guarded by mu; what kept holds, idle environments included
}

// deployment is one graph's entry in a set.
type deployment struct {
	*rl.Deployment
	idle []*rl.Env // guarded by deployments.mu; Reset, each on Ctx
	kept bool      // guarded by deployments.mu; in the set's kept list
}

func newDeployments() *deployments { return &deployments{limit: deploymentBytes} }

// take returns g's deployment, moved to the front, and one of its idle
// environments (nil when none is idle); nil when none is kept.
func (s *deployments) take(g *Graph) (*deployment, *rl.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, d := range s.kept {
		if !d.Ctx.G.Identical(g) {
			continue
		}
		copy(s.kept[1:i+1], s.kept[:i])
		s.kept[0] = d
		k := len(d.idle)
		if k == 0 {
			return d, nil
		}
		env := d.idle[k-1]
		d.idle[k-1] = nil
		d.idle = d.idle[:k-1]
		s.bytes -= d.EnvBytes()
		return d, env
	}
	return nil, nil
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

// put returns env, which a plan on d's context has finished with, to d's
// idle list: Reset, so that it holds no trajectory and calls no earlier
// request's callback. An environment of a deployment that is no longer
// kept, or that does not fit, is dropped.
func (s *deployments) put(d *deployment, env *rl.Env) {
	env.Reset()
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.kept && s.makeRoom(d.EnvBytes(), d) {
		d.idle = append(d.idle, env)
		s.bytes += d.EnvBytes()
	}
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
		s.bytes -= d.Bytes() + int64(len(d.idle))*d.EnvBytes()
		d.idle, d.kept = nil, false
		s.kept = append(s.kept[:i], s.kept[i+1:]...)
	}
	return s.bytes+need <= s.limit
}

// deploy returns g's deployment under installed's policy and an
// environment on its context evaluating with ev against baseTh, in SAMPLE
// mode — the configuration the deployed-policy methods run in. When no
// deployment of g is kept it builds one on a clone of g with policy, the
// plan's clone of the installed policy; reused reports that one was kept.
// The caller hands the environment back with put once its plan is done.
func (pl *Planner) deploy(g *Graph, installed policySnapshot, policy *rl.Policy, ev eval.Evaluator, baseTh float64) (d *deployment, env *rl.Env, reused bool, err error) {
	d, env = installed.deployments.take(g)
	reused = d != nil
	if d == nil {
		d = installed.deployments.add(rl.NewDeployment(policy, pl.graphContext(g.Clone(), policy.Cfg)))
	}
	if env == nil {
		ctx := d.Ctx
		if env, err = pl.buildEnv(ctx.G, ctx, ev, baseTh); err != nil {
			return nil, nil, false, err
		}
	}
	env.Eval, env.Baseline, env.UseSampleMode = ev, baseTh, true
	return d, env, reused, nil
}
