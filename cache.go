package mcmpart

import (
	"fmt"
	"sync"
	"unsafe"
)

// planCacheKey builds the canonical cache key of one plan: the graph's
// canonical fingerprint, the package fingerprint, the fingerprint of the
// installed policy (empty for the from-scratch methods, which never consult
// it), and the normalized options. Everything a plan's output depends on is
// in the key; everything else (graph names, node insertion order, Progress
// callbacks) is deliberately not. See DESIGN.md, "The cache-key contract".
//
// The leading v=3 names the entry layout: partitions are stored by
// canonical node position (see canonicalize), in the canonical order of
// graph.Fingerprint's 64-bit signatures. Entries an older daemon wrote to a
// shared disk tier are under keys no lookup here can form: unversioned
// (ID-ordered partitions) or v=2 (positions from SHA-256 signatures, and a
// fingerprint over attribute digests) — they are never served.
func planCacheKey(graphFP, pkgFP, policyFP string, opts PlanOptions) string {
	if !opts.Method.usesPolicy() {
		// From-scratch methods are policy-independent: hitting the cache
		// across policy installs is correct and desirable.
		policyFP = ""
	}
	return fmt.Sprintf("v=3|g=%s|p=%s|w=%s|m=%s|b=%d|s=%d|sim=%t|a=%t",
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

// planCache is the one bounded store of everything that outlives a
// request: completed plans by cache key, keyed requests by body digest (the
// request memo), terminal jobs by ID, and an installed policy's deployments
// by graph fingerprint. It keeps the most recently used entries whose sizes
// sum to at most limit bytes, each entry weighed by size(val) when it is
// put. All methods are safe for concurrent use. A value is shared, not
// copied: put keeps what it is given and get returns it, so whoever holds
// one must not write through it — the Service never does, and never hands
// a plan to a caller (Job.Result copies). A hit is therefore bit-identical
// to the plan that populated the entry.
//
// The cache does not count its own hits and misses: a lookup happens
// before the Service decides whether the request is admitted, and the
// hit/miss counters must account admitted jobs only (see serviceMetrics).
// The Service increments its tier counters at the admission points.
type planCache[K comparable, V any] struct {
	limit int64         // immutable after newPlanCache
	size  func(V) int64 // immutable after newPlanCache

	mu    sync.Mutex
	root  planCacheEntry[K, V]        // guarded by mu; root.next is the most recently used entry, root.prev the least
	items map[K]*planCacheEntry[K, V] // guarded by mu
	used  int64                       // guarded by mu; the sum of the entries' sizes
}

// planCacheEntry is one entry, linked into its cache's recency ring.
type planCacheEntry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *planCacheEntry[K, V]
}

// entryBytes is what a cache spends on an entry besides its value: the
// entry itself, its map slot, and its key — a plan-cache key, the longest,
// is about 250 bytes. The size functions of the stores of small values add
// it.
const entryBytes = 512

// newPlanCache returns a cache bounded to limit bytes, each value weighed
// by size. size reads only the value's shape — slice lengths times element
// size, string lengths, and fixed struct sizes — so it is exact and cheap.
func newPlanCache[K comparable, V any](limit int64, size func(V) int64) *planCache[K, V] {
	c := &planCache[K, V]{limit: limit, size: size, items: make(map[K]*planCacheEntry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *planCache[K, V]) get(key K) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return val, false
	}
	e.unlink()
	c.pushFront(e)
	return e.val, true
}

// put keeps val under key as the most recently used entry, replacing and
// re-weighing the value an existing entry holds, and then evicts the least
// recently used entries until the rest fit the limit. A value larger than
// the limit on its own is not kept, and removes the entry it would replace.
func (c *planCache[K, V]) put(key K, val V) {
	size := c.size(val)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if ok {
		e.unlink()
		c.used -= e.size
	}
	if size > c.limit {
		delete(c.items, key)
		return
	}
	if !ok {
		e = &planCacheEntry[K, V]{key: key}
		c.items[key] = e
	}
	e.val, e.size = val, size
	c.pushFront(e)
	c.used += size
	for c.used > c.limit {
		oldest := c.root.prev
		oldest.unlink()
		c.used -= oldest.size
		delete(c.items, oldest.key)
	}
}

// snapshot returns how many entries the cache holds and their bytes.
func (c *planCache[K, V]) snapshot() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.used
}

func (e *planCacheEntry[K, V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *planCache[K, V]) pushFront(e *planCacheEntry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// resultBytes is what a Result holds: the struct, its partition and
// history, and its failure counts' keys and slots. nil holds nothing.
func resultBytes(r *Result) int64 {
	if r == nil {
		return 0
	}
	n := int64(unsafe.Sizeof(*r)) + int64(len(r.Partition))*int64(unsafe.Sizeof(0)) + int64(len(r.History))*int64(unsafe.Sizeof(0.0))
	for k := range r.FailCounts {
		n += int64(len(k)) + int64(unsafe.Sizeof(k)+unsafe.Sizeof(0))
	}
	return n
}
