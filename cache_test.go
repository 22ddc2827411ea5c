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
