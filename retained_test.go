package mcmpart

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"mcmpart/internal/graph"
)

// liveHeap returns the live heap once it has settled: it collects until two
// consecutive collections leave the same HeapAlloc (at most ten), since
// what an earlier test left in a sync.Pool survives one collection in the
// victim cache and would be freed mid-measurement. Every test of the
// package that reads the heap reads it here or through allocated.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	for range 10 {
		last := ms.HeapAlloc
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc == last {
			break
		}
	}
	return ms.HeapAlloc
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRetainedHeapStaysInTheBounds: what the Service keeps between requests
// is bounded in bytes, not in entries. 240 requests for serve-warm's
// 10k-node graph through the handler, each under its own analytic seed, so
// that each misses the request memo and the plan cache and leaves a plan,
// a keyed request and a terminal job of ≈80 kB each: more than any of the
// three stores holds. The heap after a GC grows by at most their bounds
// (4 + 4 + 16 MiB) plus a slack of 6 MiB: the handler's body spare (at
// most 4 MiB) and the last request's garbage that a GC may not yet have
// returned. Under entry-count bounds (256 plans, 256 requests, 1024 jobs)
// the same requests kept ≈54 MB.
func TestRetainedHeapStaysInTheBounds(t *testing.T) {
	const requests = 240
	const slack = 6 << 20
	if testing.Short() || raceEnabled {
		t.Skip("plans 240 requests for a 10k-node graph")
	}
	graphJSON, err := json.Marshal(warmGraph())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Edge36(), ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := NewHTTPHandler(svc)
	before := liveHeap()
	body := make([]byte, 0, len(graphJSON)+128)
	for seed := 1; seed <= requests; seed++ {
		body = fmt.Appendf(append(append(body[:0], `{"graph":`...), graphJSON...), `,"options":{"method":"analytic","seed":%d}}`, seed)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", seed, rec.Code, rec.Body)
		}
	}
	grown := int64(liveHeap()) - int64(before)
	st := svc.Stats()
	if st.PlansExecuted != requests || st.RequestMemoHits != 0 {
		t.Fatalf("stats %+v: want every request a memo miss and a plan", st)
	}
	t.Logf("retained heap %.1f MB; cache %.1f MB in %d plans, memo %.1f MB, jobs %.1f MB",
		float64(grown)/1e6, float64(st.CacheBytes)/1e6, st.CacheEntries,
		float64(st.MemoBytes)/1e6, float64(st.JobBytes)/1e6)
	if st.CacheBytes > cacheBytes || st.MemoBytes > memoBytes || st.JobBytes > retiredJobBytes {
		t.Errorf("a store counts more than its bound: %+v", st)
	}
	if st.JobBytes < retiredJobBytes*9/10 {
		t.Errorf("the retired jobs hold %d bytes: the requests never brought them to their bound", st.JobBytes)
	}
	if grown > cacheBytes+memoBytes+retiredJobBytes+slack {
		t.Errorf("the heap grew by %d bytes over %d requests, bound %d", grown, requests, cacheBytes+memoBytes+retiredJobBytes+slack)
	}
}

// TestRetainedTrainingHeapStaysInItsBound: what RL-from-scratch plans keep
// is bounded in bytes. Eight BERT variants, each its own fingerprint,
// planned RL twice through a Service (two seeds, two cache keys), each
// leave a context and a kit of ≈16 MB at two workers: more than the
// training store's bound holds. The store counts at most its bound, evicts,
// and the heap after a GC grows by at most that bound plus a slack of 6 MiB
// for what the other stores keep of sixteen requests and the last plan's
// garbage.
func TestRetainedTrainingHeapStaysInItsBound(t *testing.T) {
	const variants = 8
	const slack = 6 << 20
	if testing.Short() || raceEnabled {
		t.Skip("plans eight BERT-sized RL requests")
	}
	svc, err := NewService(Edge36(), ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	before := liveHeap()
	withWorkers(2, func() {
		for i := 1; i <= variants; i++ {
			g := variant(BERT(), func(nodes []graph.Node, _ []graph.Edge) { nodes[0].FLOPs += float64(i) })
			for seed := int64(1); seed <= 2; seed++ {
				if _, err := svc.Plan(context.Background(), g, PlanOptions{Method: MethodRL, SampleBudget: 16, Seed: seed}); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	grown := int64(liveHeap()) - int64(before)
	st := svc.Stats()
	t.Logf("retained heap %.1f MB; training store %.1f MB, %d evictions", float64(grown)/1e6, float64(st.TrainingBytes)/1e6, st.TrainingEvictions)
	if st.TrainingBytes > trainingBytes || st.TrainingEvictions == 0 {
		t.Errorf("the training store counts %d bytes after %d evictions, bound %d", st.TrainingBytes, st.TrainingEvictions, trainingBytes)
	}
	if st.RLPlansNewKit != variants || st.RLPlansReusedKit != variants {
		t.Errorf("the service counts %d new-kit and %d reused-kit RL plans, want %d, %d", st.RLPlansNewKit, st.RLPlansReusedKit, variants, variants)
	}
	if grown > trainingBytes+slack {
		t.Errorf("the heap grew by %d bytes over %d RL plans, bound %d", grown, variants, trainingBytes+slack)
	}
}
