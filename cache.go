package mcmpart

import (
	"container/list"
	"fmt"
	"sync"
)

// planCacheKey builds the canonical cache key of one plan: the graph's
// canonical fingerprint, the package fingerprint, the fingerprint of the
// installed policy (empty for the from-scratch methods, which never consult
// it), and the normalized options. Everything a plan's output depends on is
// in the key; everything else (graph names, node insertion order, Progress
// callbacks) is deliberately not. See DESIGN.md, "The cache-key contract".
//
// The leading v=2 names the entry layout: partitions are stored by
// canonical node position (see canonicalize). Entries a pre-v2 daemon wrote
// to a shared disk tier hold ID-ordered partitions under unversioned keys,
// which no v2 lookup can name — they are never served.
func planCacheKey(graphFP, pkgFP, policyFP string, opts PlanOptions) string {
	if !opts.Method.usesPolicy() {
		// From-scratch methods are policy-independent: hitting the cache
		// across policy installs is correct and desirable.
		policyFP = ""
	}
	return fmt.Sprintf("v=2|g=%s|p=%s|w=%s|m=%s|b=%d|s=%d|sim=%t|a=%t",
		graphFP, pkgFP, policyFP, opts.Method, opts.SampleBudget, opts.Seed, opts.UseSimulator, opts.SeedFromAnalytic)
}

// cloneResult deep-copies a Result. It has one caller, Job.Result: what the
// Service keeps for a key is never handed out, so the copy is made where a
// result leaves (DESIGN.md §8, "The isolation contract").
func cloneResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	c := *r
	c.Partition = append(Partition(nil), r.Partition...)
	c.History = append([]float64(nil), r.History...)
	if r.FailCounts != nil {
		c.FailCounts = make(map[string]int, len(r.FailCounts))
		for k, v := range r.FailCounts {
			c.FailCounts[k] = v
		}
	}
	return &c
}

// canonicalize re-indexes a freshly planned result's partition from the
// planned graph's node IDs to canonical node positions (pos is
// graph.CanonicalPositions of that graph; nil is the identity). Everything
// the Service keeps for a cache key — memory entry, disk entry, the flight's
// outcome — is in this order, so it fits every graph with the key's
// fingerprint, whatever order its nodes were inserted in; Job.finish maps
// it to the receiving job's own node IDs. Nothing else holds the result
// Planner.Plan returned, so from here on it is the Service's to keep.
func canonicalize(res *Result, pos []int) {
	if res == nil || len(pos) != len(res.Partition) {
		return
	}
	canon := make(Partition, len(pos))
	for v, p := range pos {
		canon[p] = res.Partition[v]
	}
	res.Partition = canon
}

// planCache is the Service's bounded LRU: of completed plans by cache key,
// and — as the request memo — of keyed requests by body digest. All methods
// are safe for concurrent use. A value is shared, not copied: put keeps
// what it is given and get returns it, so whoever holds one must not write
// through it — the Service never does, and never hands a plan to a caller
// (Job.Result copies). A hit is therefore bit-identical to the plan that
// populated the entry.
//
// The cache does not count its own hits and misses: a lookup happens
// before the Service decides whether the request is admitted, and the
// hit/miss counters must account admitted jobs only (see serviceMetrics).
// The Service increments its tier counters at the admission points.
type planCache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int                 // immutable after newPlanCache
	ll    *list.List          // guarded by mu; front = most recently used
	items map[K]*list.Element // guarded by mu
}

type planCacheEntry[K comparable, V any] struct {
	key K
	val V
}

// newPlanCache returns a cache bounded to max entries; max <= 0 disables
// caching (every get is a miss, every put a no-op).
func newPlanCache[K comparable, V any](max int) *planCache[K, V] {
	c := &planCache[K, V]{cap: max}
	if max > 0 {
		c.ll = list.New()
		c.items = make(map[K]*list.Element, max)
	}
	return c
}

func (c *planCache[K, V]) get(key K) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return val, false
	}
	el, ok := c.items[key]
	if !ok {
		return val, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planCacheEntry[K, V]).val, true
}

func (c *planCache[K, V]) put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*planCacheEntry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&planCacheEntry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*planCacheEntry[K, V]).key)
	}
}

// snapshot returns (current size, capacity).
func (c *planCache[K, V]) snapshot() (size, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap > 0 {
		size = c.ll.Len()
	}
	return size, c.cap
}
