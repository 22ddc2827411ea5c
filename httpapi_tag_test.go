package mcmpart

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"mcmpart/internal/randgraph"
)

// The request memo's key is a keyed tag of every byte of the body
// (Service.requestTag), and the body's buffer is reused by the next request
// (bodySpare). Each test names the mutation it catches.

// TestRequestMemoMissesAFlippedByte: a body of the same length as a known
// one, differing in its first or in its last byte, misses the memo — it is
// decoded and served by the plan cache the ordinary way. The body is padded
// with whitespace so that both flips leave a valid request. Mutation
// caught: the tag taken over less than the whole body.
func TestRequestMemoMissesAFlippedByte(t *testing.T) {
	svc, h := memoTestService(t, ServiceOptions{Workers: 1})
	body := slices.Concat([]byte(" "), requestBody(t, CorpusGraphs(1)[3], memoOpts), []byte(" "))
	_, first := postPlan(t, h, body)
	if _, again := postPlan(t, h, body); !again.Cached || svc.Stats().RequestMemoHits != 1 {
		t.Fatalf("the body's second POST: cached=%t, memo hits %d; want a memo hit", again.Cached, svc.Stats().RequestMemoHits)
	}
	for _, at := range []int{0, len(body) - 1} {
		flipped := slices.Clone(body)
		flipped[at] = '\n'
		rec, got := postPlan(t, h, flipped)
		if rec.Code != http.StatusOK || !got.Cached {
			t.Fatalf("byte %d flipped: %d cached=%t, want a plan-cache hit", at, rec.Code, got.Cached)
		}
		samePlan(t, got, first)
	}
	if st := svc.Stats(); st.RequestMemoHits != 1 || st.CacheHits != 3 {
		t.Fatalf("memo hits %d, cache hits %d; want 1 and 3: a body with one byte flipped was served through the memo",
			st.RequestMemoHits, st.CacheHits)
	}
}

// TestRequestTagIsPerService: a body's tag is a function of the body under
// one Service, and another Service tags it differently — the key is each
// Service's own, drawn when it is built. Mutation caught: a fixed key.
func TestRequestTagIsPerService(t *testing.T) {
	a, _ := memoTestService(t, ServiceOptions{})
	b, _ := memoTestService(t, ServiceOptions{})
	body := requestBody(t, CorpusGraphs(1)[3], memoOpts)
	if a.requestTag(body) != a.requestTag(slices.Clone(body)) {
		t.Fatal("one Service tags one body two ways")
	}
	if a.requestTag(body) == b.requestTag(body) {
		t.Fatal("two Services give one body the same tag: the key is not per Service")
	}
}

// TestConcurrentBodiesGetTheirOwnPlans posts distinct bodies at once —
// each graph's known body and the graph under fresh names, which misses the
// memo and is decoded — and requires every response to be that graph's own
// plan. Under -race it covers the shared AEAD and the reused body buffers.
// Mutation caught: a body's buffer released before it is decoded, where
// another request's bytes overwrite it.
func TestConcurrentBodiesGetTheirOwnPlans(t *testing.T) {
	_, h := memoTestService(t, ServiceOptions{Workers: 2})
	const graphs, renamings, rounds = 4, 3, 16
	type variant struct {
		body []byte
		want PlanResponse
	}
	var variants []variant
	for i := 0; i < graphs; i++ {
		g := randgraph.Generate(randgraph.Config{Family: randgraph.Families()[i], Nodes: 300 + 40*i, Seed: int64(i + 1)})
		body := requestBody(t, g, memoOpts)
		rec, want := postPlan(t, h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("graph %d: %d %s", i, rec.Code, rec.Body)
		}
		variants = append(variants, variant{body, want})
		for r := 1; r <= renamings; r++ {
			variants = append(variants, variant{renamedRequestBody(t, g, memoOpts, 100*i+r), want})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2*len(variants); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				v := variants[(w+round*5)%len(variants)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(v.body)))
				var got PlanResponse
				if rec.Code != http.StatusOK {
					t.Errorf("poster %d round %d: %d %.200s", w, round, rec.Code, rec.Body)
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Error(err)
					return
				}
				samePlan(t, got, v.want)
			}
		}()
	}
	wg.Wait()
}

// TestBodySpareDropsALargeBuffer: after a 20 MiB POST and then a small one,
// the handler's spare holds no buffer above maxSpareBytes, and the small
// POST is served. Mutation caught: release keeping every buffer, so that
// one large body pins its size for the handler's lifetime (the small body
// borrows it and hands it back).
func TestBodySpareDropsALargeBuffer(t *testing.T) {
	svc, _ := memoTestService(t, ServiceOptions{Workers: 1})
	spare := new(bodySpare)
	h := newHTTPHandler(svc, spare)
	small := requestBody(t, CorpusGraphs(1)[3], memoOpts)
	large := slices.Concat(bytes.Repeat([]byte(" "), 20<<20), small)
	for _, body := range [][]byte{large, small} {
		if rec, _ := postPlan(t, h, body); rec.Code != http.StatusOK {
			t.Fatalf("%d-byte POST: %d %.200s", len(body), rec.Code, rec.Body)
		}
		if p := spare.buf.Load(); p != nil && cap(*p) > maxSpareBytes {
			t.Fatalf("after a %d-byte POST the spare holds a %d-byte buffer, cap %d", len(body), cap(*p), maxSpareBytes)
		}
	}
	if p := spare.buf.Load(); p == nil || cap(*p) < len(small) {
		t.Fatal("the small body's buffer is not kept for the next request")
	}
}
