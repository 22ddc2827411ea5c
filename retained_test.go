package mcmpart

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

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
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	body := make([]byte, 0, len(graphJSON)+128)
	for seed := 1; seed <= requests; seed++ {
		body = fmt.Appendf(append(append(body[:0], `{"graph":`...), graphJSON...), `,"options":{"method":"analytic","seed":%d}}`, seed)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", seed, rec.Code, rec.Body)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := svc.Stats()
	if st.PlansExecuted != requests || st.RequestMemoHits != 0 {
		t.Fatalf("stats %+v: want every request a memo miss and a plan", st)
	}
	t.Logf("retained heap %.1f MB; cache %.1f MB in %d plans, memo %.1f MB, jobs %.1f MB",
		float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/1e6, float64(st.CacheBytes)/1e6, st.CacheEntries,
		float64(st.MemoBytes)/1e6, float64(st.JobBytes)/1e6)
	if st.CacheBytes > cacheBytes || st.MemoBytes > memoBytes || st.JobBytes > retiredJobBytes {
		t.Errorf("a store counts more than its bound: %+v", st)
	}
	if st.JobBytes < retiredJobBytes*9/10 {
		t.Errorf("the retired jobs hold %d bytes: the requests never brought them to their bound", st.JobBytes)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > cacheBytes+memoBytes+retiredJobBytes+slack {
		t.Errorf("the heap grew by %d bytes over %d requests, bound %d", grown, requests, cacheBytes+memoBytes+retiredJobBytes+slack)
	}
}
