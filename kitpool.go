package mcmpart

import (
	"sync"
	"sync/atomic"

	"mcmpart/internal/rl"
)

// kitPool is one graph's entry in a store of per-graph kits — an installed
// policy's deployments (deployment.go) and the planner's training kits
// (training.go): base, what every plan of the graph shares, built once on a
// clone of the graph, and a free list of idle kits, each what one plan runs
// on besides base. A plan takes an entry and a kit with takeKit, and hands
// the kit back with put once it is done.
//
// The store is keyed by the graph's StructureDigest, which covers every
// node's Op, FLOPs bits, ParamBytes and OutputBytes in ID order and every
// edge in insertion order: all that a plan reads of a graph, which reads no
// name. The store counts base and the idle kits, each weighed when its plan
// hands it back; a kit out on a plan is the plan's, and one whose plan
// panicked mid-sample — which may have left its solver's tables or its
// scratch half built — is never handed back, so it stops being counted when
// it is taken.
type kitPool[D any] struct {
	base      D                                 // immutable
	key       [32]byte                          // immutable; the store's key
	baseBytes int64                             // immutable: what base holds
	set       *planCache[[32]byte, *kitPool[D]] // immutable: the store the entry was put in
	mu        sync.Mutex
	idle      []kit // guarded by mu
	// weight is what the store counts for the entry: base and the idle
	// kits. It changes only under mu, and the entry is re-weighed before mu
	// is released, so the store weighs it as its last change left it.
	weight atomic.Int64
}

// kit is what one plan of an entry's graph runs on besides the entry's
// base: an environment on the base's context, and either a clone of the
// policy a deployment was built under (policy), or, once an RL plan has run
// on a training kit, a trainer whose policy, optimizer, activation records,
// rollout workers with their partitioner replicas and batch buffers are
// sized for the graph (trainer). A random or annealing plan runs on the
// environment alone. An idle kit's environment is Reset, so that it holds
// no trajectory and calls no earlier request's callback.
type kit struct {
	env     *rl.Env
	policy  *rl.Policy
	trainer *rl.Trainer
	bytes   int64 // what the store counts for the kit while it is idle
}

// newKitStore returns an empty store of per-graph kit pools bounded to
// limit bytes.
func newKitStore[D any](limit int64) *planCache[[32]byte, *kitPool[D]] {
	return newPlanCache[[32]byte](limit, (*kitPool[D]).bytes)
}

// takeKit returns set's entry for g and, when the entry has one, an idle kit
// of it, which the caller readies for its plan; otherwise a zero kit, for the
// caller to build one on the entry's base. held reports that set held the
// entry. When it held none, the entry is new, its base newBase's on a clone
// of g that shares g's adjacency, layout and digest (Graph.CloneDerived),
// and it is not kept when its base alone exceeds set's bound. Plans of a
// new graph that arrive together may each build an entry; the first one
// put is the graph's, and the others run on it and drop their own, so that
// every kit they hand back lands in the one entry.
func takeKit[D any](set *planCache[[32]byte, *kitPool[D]], g *Graph, newBase func(clone *Graph) (base D, bytes int64)) (p *kitPool[D], k kit, held bool) {
	key := g.StructureDigest()
	if p, held = set.get(key); held {
		return p, p.take(), true
	}
	clone := g.CloneDerived()
	base, bytes := newBase(clone)
	p = &kitPool[D]{base: base, key: key, baseBytes: bytes, set: set}
	p.weight.Store(bytes)
	if p, held = set.putIfAbsent(key, p); held {
		return p, p.take(), true
	}
	return p, kit{}, false
}

// bytes is what the store counts for p.
func (p *kitPool[D]) bytes() int64 { return p.weight.Load() }

// reweighLocked counts p's base and idle kits, and re-weighs p in its store
// if the store still holds it. p.mu must be held.
func (p *kitPool[D]) reweighLocked() {
	w := p.baseBytes
	for _, k := range p.idle {
		w += k.bytes
	}
	p.weight.Store(w)
	reweigh(p.set, p.key, p)
}

// take returns one of p's idle kits, and a zero kit when none is idle.
func (p *kitPool[D]) take() (k kit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return k
	}
	k = p.idle[n-1]
	p.idle[n-1] = kit{}
	p.idle = p.idle[:n-1]
	p.reweighLocked()
	return k
}

// put hands k, which a plan on p's base has finished with, back to p's
// idle list, its environment Reset. A trainer keeps the rollout workers its
// last batch ran on, and a training kit is weighed as it then holds, since
// its environment's tables grow with the searches run on it too; a
// deployment's kit keeps the weight it was built with. A kit that does
// not fit in p's store beside p's base and idle kits is dropped.
func (p *kitPool[D]) put(k kit) {
	switch {
	case k.trainer != nil:
		k.trainer.TrimWorkers()
		k.bytes = k.env.Bytes() + k.trainer.Bytes()
	case k.policy == nil:
		k.bytes = k.env.Bytes()
	}
	k.env.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.weight.Load()+k.bytes > p.set.limit {
		return
	}
	p.idle = append(p.idle, k)
	p.reweighLocked()
}
