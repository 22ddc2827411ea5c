package mcmpart

import (
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mcmpart/internal/plancache"
)

// chaincnnV2Fingerprint is chaincnn-00's (CorpusGraphs(1)[0]) graph
// fingerprint under the v=2 key: SHA-256 signatures and attribute digests,
// the row internal/graph/testdata/fingerprint_golden.json held until the
// key went to v=3.
const chaincnnV2Fingerprint = "5cc835b30eb35e71f0cedc34420acb836434d1d752c6bc4d8c1eb3a6e0954dd4"

// TestVersionUpgradeMissesNeverHits: a disk tier an older daemon wrote holds
// v=2 entries. Planning the same graph and options here misses the disk,
// plans afresh, and stores the plan under the v=3| key. Two v=2 entries are
// seeded, each holding a partition that fits no package (every node on chip
// 999), so serving either would show: the one a v=2 daemon wrote (its own
// fingerprint), and the current key with only the prefix set back to v=2|.
func TestVersionUpgradeMissesNeverHits(t *testing.T) {
	g := CorpusGraphs(1)[0]
	if g.Name() != "chaincnn-00" || g.Fingerprint() == chaincnnV2Fingerprint {
		t.Fatalf("%s, fingerprint %s: not the graph the v=2 fingerprint names, or the key did not change", g, g.Fingerprint())
	}
	pkg := Dev8()
	opts := PlanOptions{Method: MethodRandom, SampleBudget: 8, Seed: 3}
	norm, err := normalizeRequest(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	pkgFP := PackageFingerprint(pkg)
	key := planCacheKey(g.Fingerprint(), pkgFP, "", norm)
	if !strings.HasPrefix(key, "v=3|") {
		t.Fatalf("key %q: want the v=3| prefix", key)
	}
	stale := []string{
		"v=2|" + strings.TrimPrefix(planCacheKey(chaincnnV2Fingerprint, pkgFP, "", norm), "v=3|"),
		"v=2|" + strings.TrimPrefix(key, "v=3|"),
	}

	dir := filepath.Join(t.TempDir(), "plans")
	old, err := plancache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := make(Partition, g.NumNodes())
	for v := range wrong {
		wrong[v] = 999
	}
	payload, err := json.Marshal(resultToWire(&Result{Partition: wrong, Samples: 1, History: []float64{1}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range stale {
		if err := old.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}

	svc, err := NewService(pkg, ServiceOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Plan(context.Background(), g, opts)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	st := svc.Stats()
	svc.Close()
	if st.DiskCacheHits != 0 || st.CacheHits != 0 || st.PlansExecuted != 1 {
		t.Errorf("stats %+v: want no hit in either tier and one plan executed", st)
	}
	if err := res.Partition.ValidateOn(g, pkg); err != nil {
		t.Errorf("the plan served after the upgrade does not fit the graph: %v", err)
	}

	stored, ok := old.Get(key)
	if !ok {
		t.Fatalf("no entry under the v=3 key %q", key)
	}
	var w ResultWire
	if err := json.Unmarshal(stored, &w); err != nil {
		t.Fatal(err)
	}
	if len(w.Partition) != g.NumNodes() || slices.Equal(w.Partition, wrong) {
		t.Errorf("the v=3 entry holds %d chips, want a fresh plan for %d nodes", len(w.Partition), g.NumNodes())
	}
}

// TestAdmitRechecksTheCache: a flight that stores its key's plan and retires
// between a request's lookup and its admission has left the plan in the
// memory cache, and admit serves it as a hit instead of planning the key a
// second time. The window is taken deterministically: the request is keyed,
// its lookup misses, the plan is stored, and then the request is admitted.
func TestAdmitRechecksTheCache(t *testing.T) {
	g := CorpusGraphs(1)[0]
	svc, err := NewService(Dev8(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	req := PlanRequest{Graph: g, Options: PlanOptions{Method: MethodRandom, SampleBudget: 8, Seed: 3}}
	a := admission{start: svc.now()}
	if err := svc.normalize(ctx, req, &a); err != nil {
		t.Fatal(err)
	}
	svc.keyRequest(&a)
	if _, _, ok := svc.lookup(a.key); ok {
		t.Fatal("lookup hit before anything was stored")
	}
	res, err := svc.Planner().Plan(ctx, g, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(res.Partition)
	canonicalize(res, a.pos)
	svc.store(a.key, res)

	job, err := svc.admit(&a, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Status(); st.State != JobDone || !st.Cached {
		t.Fatalf("admitted job %+v: want done and cached", st)
	}
	got, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Partition, want) {
		t.Fatalf("admitted job's partition %v, planned %v", got.Partition, want)
	}
	if st := svc.Stats(); st.PlansExecuted != 0 || st.CacheHits != 1 || st.CacheMisses != 0 || st.JobsSubmitted != 1 {
		t.Fatalf("stats %+v: want one memory hit and no plan executed", st)
	}
}

// entries returns the cache's keys and values, most recently used first.
func (c *planCache[K, V]) entries() (keys []K, vals []V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.root.next; e != &c.root; e = e.next {
		keys, vals = append(keys, e.key), append(vals, e.val)
	}
	return keys, vals
}

// values returns the cache's values, most recently used first.
func (c *planCache[K, V]) values() []V {
	_, vals := c.entries()
	return vals
}

// refLRU is the reference FuzzPlanCache holds planCache to: a slice of
// (key, size) pairs, most recently used first, that a put evicts from the
// back until the sizes fit the limit, counting each entry it evicts and
// each value it does not keep.
type refLRU struct {
	limit     int64
	entries   []refEntry
	evictions uint64
}

type refEntry struct {
	key  byte
	size int64
}

func (r *refLRU) remove(key byte) (refEntry, bool) {
	for i, e := range r.entries {
		if e.key == key {
			r.entries = slices.Delete(r.entries, i, i+1)
			return e, true
		}
	}
	return refEntry{}, false
}

func (r *refLRU) get(key byte) (int64, bool) {
	e, ok := r.remove(key)
	if ok {
		r.entries = slices.Insert(r.entries, 0, e)
	}
	return e.size, ok
}

func (r *refLRU) put(key byte, size int64) {
	r.remove(key)
	if size > r.limit {
		r.evictions++
		return
	}
	r.entries = slices.Insert(r.entries, 0, refEntry{key, size})
	for r.used() > r.limit {
		r.entries = r.entries[:len(r.entries)-1]
		r.evictions++
	}
}

func (r *refLRU) used() (n int64) {
	for _, e := range r.entries {
		n += e.size
	}
	return n
}

// FuzzPlanCache is a differential of planCache against refLRU. The first
// byte is the limit; then each pair of bytes is one operation on one of
// eight keys: a get, or a put of a value that weighs the second byte.
// After every operation both hold the same entries in the same order, a
// get finds what the reference finds, the cache counts the sum of its
// entries' sizes, never more than the limit, and as many evictions as the
// reference.
func FuzzPlanCache(f *testing.F) {
	f.Add([]byte{10, 8, 4, 9, 4, 10, 3, 0, 0, 8, 11, 1, 0})
	f.Add([]byte{5, 8, 6, 9, 5, 8, 2, 9, 9, 1, 0})
	f.Add([]byte{0, 8, 0, 9, 1, 0, 0})
	f.Add([]byte{10, 8, 4, 9, 2, 8, 11, 0, 0, 1, 0})
	f.Add([]byte{255, 8, 200, 9, 100, 10, 50, 8, 1, 2, 0, 9, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		c := newPlanCache[byte](int64(ops[0]), func(v int64) int64 { return v })
		ref := &refLRU{limit: int64(ops[0])}
		for i := 1; i+1 < len(ops); i += 2 {
			key, arg := ops[i]&7, int64(ops[i+1])
			if ops[i]&8 != 0 {
				c.put(key, arg)
				ref.put(key, arg)
			} else {
				got, ok := c.get(key)
				want, wantOK := ref.get(key)
				if ok != wantOK || got != want {
					t.Fatalf("op %d: get(%d) = %d, %t; the reference's %d, %t", i/2, key, got, ok, want, wantOK)
				}
			}
			keys, vals := c.entries()
			entries, used := c.snapshot()
			if len(ref.entries) != len(keys) || entries != len(keys) {
				t.Fatalf("op %d: %d entries (%d in the map), the reference %d", i/2, len(keys), entries, len(ref.entries))
			}
			var sum int64
			for j, e := range ref.entries {
				if keys[j] != e.key || vals[j] != e.size {
					t.Fatalf("op %d: entry %d is (%d, %d), the reference's (%d, %d)", i/2, j, keys[j], vals[j], e.key, e.size)
				}
				sum += vals[j]
			}
			if used != sum || used > c.limit {
				t.Fatalf("op %d: the cache counts %d bytes, its entries hold %d, limit %d", i/2, used, sum, c.limit)
			}
			if got := c.evictions.Load(); got != ref.evictions {
				t.Fatalf("op %d: the cache counts %d evictions, the reference %d", i/2, got, ref.evictions)
			}
		}
	})
}

// TestReweighOnlyWhatItHolds: reweigh re-weighs a value the cache holds
// under its key, evicting as put does, and does nothing for a value the
// cache evicted or replaced — it neither puts it back nor counts an
// eviction.
func TestReweighOnlyWhatItHolds(t *testing.T) {
	type val struct{ size int64 }
	c := newPlanCache[string](10, func(v *val) int64 { return v.size })
	a, b := &val{4}, &val{4}
	c.put("a", a)
	c.put("b", b)
	b.size = 7
	reweigh(c, "b", b) // a no longer fits beside it
	if entries, used := c.snapshot(); entries != 1 || used != 7 || c.evictions.Load() != 1 {
		t.Fatalf("after re-weighing b the cache holds %d entries, %d bytes, %d evictions; want 1, 7, 1", entries, used, c.evictions.Load())
	}
	a.size = 1
	reweigh(c, "a", a) // evicted
	c.put("b", &val{2})
	reweigh(c, "b", b) // replaced
	if entries, used := c.snapshot(); entries != 1 || used != 2 || c.evictions.Load() != 1 {
		t.Fatalf("re-weighing what the cache let go left %d entries, %d bytes, %d evictions; want 1, 2, 1", entries, used, c.evictions.Load())
	}
}
