package mcmpart

import (
	"sync"
	"sync/atomic"

	"mcmpart/internal/rl"
)

// kitPool is one graph's entry in a store of per-graph kits — an installed
// policy's deployments (deployment.go) and the planner's training kits
// (training.go): base, what every plan of the graph shares, built once on
// a clone of the graph, and a free list of idle kits, each what one plan
// runs on besides base. A plan takes an idle kit, or builds one when none
// is idle, and hands it back with put once it is done.
//
// The store is keyed by graph fingerprint, and a graph finds the entry
// under its fingerprint only when it is Identical to the graph the entry
// was built on (a clone, so no caller can change it). The store counts base
// and the idle kits, each weighed when its plan hands it back; a kit out on
// a plan is the plan's, and one whose plan panicked mid-sample — which may
// have left its solver's tables or its scratch half built — is never handed
// back, so it stops being counted when it is taken.
type kitPool[D any, K poolKit] struct {
	base      D      // immutable
	g         *Graph // immutable: the clone base was built on
	fp        string // immutable; the store's key
	baseBytes int64  // immutable: what base holds
	mu        sync.Mutex
	idle      []K // guarded by mu
	// weight is what the store counts for the entry: base and the idle
	// kits. It changes only under mu, and the entry is re-weighed before mu
	// is released, so the store weighs it as its last change left it.
	weight atomic.Int64
}

// poolKit is what a pool's kits are: each runs on an environment, and
// weighs what it held when its plan handed it back.
type poolKit interface {
	environment() *rl.Env
	size() int64
}

// newKitStore returns an empty store of per-graph kit pools bounded to
// limit bytes.
func newKitStore[D any, K poolKit](limit int64) *planCache[string, *kitPool[D, K]] {
	return newPlanCache[string](limit, (*kitPool[D, K]).bytes)
}

// addKitPool puts in set, under fp, a new entry of base, which holds
// baseBytes and was built on clone, a clone of the graph whose fingerprint
// is fp (nil for an entry no graph finds, a training store's sighting); it
// replaces whatever set holds under fp, and is not kept when base alone
// exceeds set's bound.
func addKitPool[D any, K poolKit](set *planCache[string, *kitPool[D, K]], fp string, clone *Graph, base D, baseBytes int64) *kitPool[D, K] {
	p := &kitPool[D, K]{base: base, g: clone, fp: fp, baseBytes: baseBytes}
	p.weight.Store(baseBytes)
	set.put(fp, p)
	return p
}

// kitPoolOf returns set's entry for g, and false when set holds none that
// was built on a graph Identical to g.
func kitPoolOf[D any, K poolKit](set *planCache[string, *kitPool[D, K]], g *Graph) (*kitPool[D, K], bool) {
	p, ok := set.get(g.Fingerprint())
	if !ok || p.g == nil || !p.g.Identical(g) {
		return nil, false
	}
	return p, true
}

// bytes is what the store counts for p.
func (p *kitPool[D, K]) bytes() int64 { return p.weight.Load() }

// reweighLocked counts p's base and idle kits, and re-weighs p in set if
// set still holds it. p.mu must be held.
func (p *kitPool[D, K]) reweighLocked(set *planCache[string, *kitPool[D, K]]) {
	w := p.baseBytes
	for _, k := range p.idle {
		w += k.size()
	}
	p.weight.Store(w)
	reweigh(set, p.fp, p)
}

// take returns one of p's idle kits, and false when none is idle.
func (p *kitPool[D, K]) take(set *planCache[string, *kitPool[D, K]]) (k K, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return k, false
	}
	k = p.idle[n-1]
	var zero K
	p.idle[n-1] = zero
	p.idle = p.idle[:n-1]
	p.reweighLocked(set)
	return k, true
}

// put hands k, which a plan on p's base has finished with and whose size
// is what it holds now, back to p's idle list, its environment Reset so
// that it holds no trajectory and calls no earlier request's callback. A
// kit that does not fit in set beside p's base and idle kits is dropped.
func (p *kitPool[D, K]) put(set *planCache[string, *kitPool[D, K]], k K) {
	k.environment().Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.weight.Load()+k.size() > set.limit {
		return
	}
	p.idle = append(p.idle, k)
	p.reweighLocked(set)
}
