package mcmpart

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

// The request memo's structure entries (DESIGN.md §8, "The Submit
// pipeline"): a graph whose raw structure the service canonicalized before
// — the same graph under other names or options — is keyed from the memo
// with no fingerprint. Each test names the mutation it catches.

// planBytes is a 200 response's partition and graph_fingerprint as the
// handler wrote them.
func planBytes(t *testing.T, rec *httptest.ResponseRecorder) (partition, fingerprint []byte) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/plan: %d %.200s", rec.Code, rec.Body)
	}
	var resp struct {
		Result struct {
			Partition json.RawMessage `json:"partition"`
		} `json:"result"`
		GraphFingerprint json.RawMessage `json:"graph_fingerprint"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Result.Partition, resp.GraphFingerprint
}

// TestRenamedPostMatchesAColdService: the graph under fresh names, once
// with the options the service planned it with (a plan-cache hit) and once
// with others (a miss, planned on the seeded graph), is answered with the
// partition and graph_fingerprint bytes a service that never saw the graph
// answers, and each POST is a structure hit. Mutations caught: seeding
// positions or a fingerprint other than the stored ones, and never
// consulting the structure entry.
func TestRenamedPostMatchesAColdService(t *testing.T) {
	svc, h := memoTestService(t, ServiceOptions{Workers: 1})
	g := CorpusGraphs(1)[3]
	if rec, _ := postPlan(t, h, requestBody(t, g, memoOpts)); rec.Code != http.StatusOK {
		t.Fatalf("first POST: %d", rec.Code)
	}
	other := memoOpts
	other.Seed = 9
	for i, opts := range []PlanOptionsWire{memoOpts, other} {
		body := renamedRequestBody(t, g, opts, i+1)
		rec, resp := postPlan(t, h, body)
		if resp.Cached != (i == 0) {
			t.Errorf("renamed body %d: cached=%t, want %t", i, resp.Cached, i == 0)
		}
		partition, fp := planBytes(t, rec)
		coldSvc, cold := memoTestService(t, ServiceOptions{Workers: 1})
		coldRec, _ := postPlan(t, cold, body)
		wantPartition, wantFP := planBytes(t, coldRec)
		if !bytes.Equal(partition, wantPartition) || !bytes.Equal(fp, wantFP) {
			t.Errorf("renamed body %d: partition %s and fingerprint %s, a cold service answers %s and %s", i, partition, fp, wantPartition, wantFP)
		}
		if got := svc.Stats().StructureMemoHits; got != uint64(i+1) {
			t.Errorf("after renamed body %d: %d structure hits, want %d", i, got, i+1)
		}
		if got := coldSvc.Stats().StructureMemoHits; got != 0 {
			t.Errorf("a cold service counts %d structure hits, want 0", got)
		}
	}
}

// TestPostRenamedBodyBytes: a POST of serve-warm's 10k-node graph under
// fresh names, its structure known, allocates what decoding, validating,
// digesting and answering it take — 3.31 MB on average over 10 POSTs. With
// the graph canonicalized again it was 3.83 MB, above the 3.6 MB ceiling.
// The bodies are built before the measurement.
func TestPostRenamedBodyBytes(t *testing.T) {
	svc, post := warmedPoster(t, warmRequestBody(t))
	const posts = 10
	bodies := make([][]byte, posts)
	for i := range bodies {
		bodies[i] = renamedRequestBody(t, warmGraph(), warmOptions, i+1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies {
		post(body)
	}
	runtime.ReadMemStats(&after)
	mean := float64(after.TotalAlloc-before.TotalAlloc) / posts / (1 << 20)
	t.Logf("a renamed body's POST allocated %.2f MB on average", mean)
	if st := svc.Stats(); st.StructureMemoHits != posts || st.PlansExecuted != 1 {
		t.Fatalf("%d structure hits and %d plans, want %d and 1", st.StructureMemoHits, st.PlansExecuted, posts)
	}
	if mean > 3.6 && !raceEnabled { // the race detector's instrumentation allocates too
		t.Errorf("a renamed body's POST allocated %.2f MB on average, ceiling 3.6 MB: was its graph canonicalized again?", mean)
	}
}

// TestConcurrentRenamedPostsShareAStructure posts renamed copies of one
// graph at once, to a service that has not seen it, under options some of
// which it has a plan for by then and some of which it has not, and
// requires every response to be the plan a service that never saw a
// renamed copy answers. Only a poster's first POST can miss the structure
// entry. Under -race it covers the memo's positions, shared by every graph
// seeded from them and read by every job that maps a plan through them.
// Mutation caught: seeding the stored fingerprint with positions other than
// the stored ones (nil, the identity), which maps every plan wrongly.
func TestConcurrentRenamedPostsShareAStructure(t *testing.T) {
	svc, h := memoTestService(t, ServiceOptions{Workers: 2})
	_, ref := memoTestService(t, ServiceOptions{Workers: 1})
	g := CorpusGraphs(1)[5]
	const seeds, posters, rounds = 3, 6, 4
	want := make([]PlanResponse, seeds)
	opts := make([]PlanOptionsWire, seeds)
	for s := range want {
		opts[s] = PlanOptionsWire{Method: MethodRandom, SampleBudget: 8, Seed: int64(s + 1)}
		var rec *httptest.ResponseRecorder
		if rec, want[s] = postPlan(t, ref, requestBody(t, g, opts[s])); rec.Code != http.StatusOK {
			t.Fatalf("reference plan %d: %d", s, rec.Code)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				s := (p + round) % seeds
				rec := httptest.NewRecorder()
				body := renamedRequestBody(t, g, opts[s], 100*p+round)
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
				var got PlanResponse
				if rec.Code != http.StatusOK {
					t.Errorf("poster %d round %d: %d %.200s", p, round, rec.Code, rec.Body)
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Error(err)
					return
				}
				samePlan(t, got, want[s])
			}
		}()
	}
	wg.Wait()
	if hits := svc.Stats().StructureMemoHits; hits < posters*rounds-posters || hits >= posters*rounds {
		t.Errorf("%d structure hits over %d POSTs by %d posters, want at least %d and a miss", hits, posters*rounds, posters, posters*rounds-posters)
	}
}
