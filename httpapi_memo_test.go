package mcmpart

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// The request memo's contract (DESIGN.md §8, "The Submit pipeline"): a body
// byte-identical to one the service keyed before is served from the plan
// cache with no decode and no fingerprint, and every other outcome is the
// ordinary decode and Submit. Each test names the mutation it catches.

func memoTestService(t *testing.T, opts ServiceOptions) (*Service, http.Handler) {
	t.Helper()
	svc, err := NewService(Dev4(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, NewHTTPHandler(svc)
}

func requestBody(t *testing.T, g *Graph, opts PlanOptionsWire) []byte {
	t.Helper()
	body, err := json.Marshal(PlanRequestWire{Graph: g, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postPlan sends body to POST /v1/plan and decodes a 200's response.
func postPlan(t *testing.T, h http.Handler, body []byte) (*httptest.ResponseRecorder, PlanResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	var resp PlanResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return rec, resp
}

// samePlan fails t unless two responses carry the same plan for the same
// fingerprint.
func samePlan(t *testing.T, got, want PlanResponse) {
	t.Helper()
	if got.GraphFingerprint != want.GraphFingerprint {
		t.Errorf("graph_fingerprint %s, want %s", got.GraphFingerprint, want.GraphFingerprint)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("result %+v, want %+v", got.Result, want.Result)
	}
}

var memoOpts = PlanOptionsWire{Method: MethodRandom, SampleBudget: 8, Seed: 2}

// TestRequestMemoServesIdenticalBytes: the second of two byte-identical
// bodies is served through the memo with the first's plan and fingerprint;
// a body one byte longer is not (it decodes, and hits the plan cache the
// ordinary way). Mutations caught: the memo never consulted, or keyed on
// less than every byte of the body.
func TestRequestMemoServesIdenticalBytes(t *testing.T) {
	svc, h := memoTestService(t, ServiceOptions{Workers: 1})
	g := CorpusGraphs(1)[3]
	body := requestBody(t, g, memoOpts)
	rec, first := postPlan(t, h, body)
	if rec.Code != http.StatusOK || first.Cached {
		t.Fatalf("first POST: %d cached=%t", rec.Code, first.Cached)
	}
	_, second := postPlan(t, h, body)
	if st := svc.Stats(); st.RequestMemoHits != 1 || !second.Cached {
		t.Fatalf("second identical POST: memo hits %d, cached %t; want 1, true", st.RequestMemoHits, second.Cached)
	}
	samePlan(t, second, first)
	if second.GraphFingerprint != g.Fingerprint() {
		t.Fatalf("graph_fingerprint %s through the memo, want %s", second.GraphFingerprint, g.Fingerprint())
	}

	rec, longer := postPlan(t, h, append(slices.Clone(body), ' '))
	if rec.Code != http.StatusOK || !longer.Cached {
		t.Fatalf("a body one byte longer: %d cached=%t, want a plan-cache hit", rec.Code, longer.Cached)
	}
	samePlan(t, longer, first)
	if st := svc.Stats(); st.RequestMemoHits != 1 || st.CacheHits != 2 {
		t.Fatalf("memo hits %d, cache hits %d; want 1 and 2: a body one byte longer was served through the memo",
			st.RequestMemoHits, st.CacheHits)
	}
}

// TestRequestMemoReplansAnEvictedPlan: with room for one plan in the
// cache, a known body whose plan another graph's plan evicted misses the
// lookup, decodes, and plans again — the same plan as the first time.
// Mutation caught: serving from the memo entry without the lookup.
func TestRequestMemoReplansAnEvictedPlan(t *testing.T) {
	svc, h := memoTestService(t, ServiceOptions{Workers: 1})
	svc.cache = newPlanCache[string](1, func(*Result) int64 { return 1 }) // every plan weighs the whole bound
	graphs := CorpusGraphs(1)
	body := requestBody(t, graphs[3], memoOpts)
	_, first := postPlan(t, h, body)
	for round := 0; round < 2; round++ {
		// The other graph, submitted in-process, takes the one plan-cache slot
		// and leaves the memo's slot to the body.
		if _, err := svc.Plan(context.Background(), graphs[4], memoOpts.Options()); err != nil {
			t.Fatal(err)
		}
		rec, again := postPlan(t, h, body)
		if rec.Code != http.StatusOK || again.Cached {
			t.Fatalf("round %d: %d cached=%t, want a fresh plan for a body whose plan was evicted", round, rec.Code, again.Cached)
		}
		samePlan(t, again, first)
	}
	if st := svc.Stats(); st.RequestMemoHits != 0 || st.PlansExecuted != 5 {
		t.Fatalf("memo hits %d, plans executed %d; want 0 and 5", st.RequestMemoHits, st.PlansExecuted)
	}
}

// TestRequestMemoRekeysUnderANewPolicy: the memo holds no policy reading,
// so a known zero-shot body after another policy is installed is keyed
// under the new one — planned afresh, with the new policy's plan — and is
// served through the memo from then on. Mutation caught: storing the whole
// cache key in the entry.
func TestRequestMemoRekeysUnderANewPolicy(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.policy.json"), filepath.Join(dir, "b.policy.json")}
	for i, path := range paths {
		pl, err := NewPlanner(Dev4())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Pretrain(ctx, CorpusGraphs(1)[:4], PretrainOptions{
			TotalSamples: 48, Checkpoints: 2, ValidationGraphs: 1, ValidationSamples: 2, Seed: int64(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
		if err := pl.SavePolicy(path); err != nil {
			t.Fatal(err)
		}
	}
	g := CorpusGraphs(1)[3]
	zeroshot := PlanOptionsWire{Method: MethodZeroShot, SampleBudget: 12, Seed: 5}
	underB, err := NewPlanner(Dev4())
	if err != nil {
		t.Fatal(err)
	}
	if err := underB.LoadPolicy(paths[1]); err != nil {
		t.Fatal(err)
	}
	want, err := underB.Plan(ctx, g, zeroshot.Options())
	if err != nil {
		t.Fatal(err)
	}

	svc, h := memoTestService(t, ServiceOptions{Workers: 1})
	if err := svc.Planner().LoadPolicy(paths[0]); err != nil {
		t.Fatal(err)
	}
	body := requestBody(t, g, zeroshot)
	if rec, _ := postPlan(t, h, body); rec.Code != http.StatusOK {
		t.Fatalf("POST under policy A: %d %s", rec.Code, rec.Body)
	}
	if err := svc.Planner().LoadPolicy(paths[1]); err != nil {
		t.Fatal(err)
	}
	rec, got := postPlan(t, h, body)
	if rec.Code != http.StatusOK || got.Cached {
		t.Fatalf("the known body under policy B: %d cached=%t, want a fresh plan", rec.Code, got.Cached)
	}
	if !reflect.DeepEqual(got.Result.Result(), want) {
		t.Fatalf("the known body under policy B was not answered with B's plan")
	}
	if _, again := postPlan(t, h, body); !again.Cached || svc.Stats().RequestMemoHits != 1 {
		t.Fatalf("the body's third POST: cached=%t, memo hits %d; want a memo hit under B", again.Cached, svc.Stats().RequestMemoHits)
	}
}

// TestRequestMemoRemembersOnlyJobs: a body Submit refused — 400, 409, 429 —
// leaves no memo entry and is refused the same way again; the one entry
// left is g's structure, which the two Submits that became jobs keyed.
// Mutation caught: writing the entry before Submit has returned a job.
func TestRequestMemoRemembersOnlyJobs(t *testing.T) {
	svc, h := memoTestService(t, ServiceOptions{Workers: 1, QueueDepth: 1})
	g := CorpusGraphs(1)[3]
	refused := []struct {
		name string
		body []byte
		code int
	}{
		{"no graph", []byte(`{"options":{"method":"random","sample_budget":8,"seed":2}}`), http.StatusBadRequest},
		{"negative seed", requestBody(t, g, PlanOptionsWire{Method: MethodRandom, SampleBudget: 8, Seed: -1}), http.StatusBadRequest},
		{"zero-shot without a policy", requestBody(t, g, PlanOptionsWire{Method: MethodZeroShot}), http.StatusConflict},
	}
	for _, tc := range refused {
		for i := 0; i < 2; i++ {
			if rec, _ := postPlan(t, h, tc.body); rec.Code != tc.code {
				t.Errorf("%s, POST %d: %d, want %d", tc.name, i, rec.Code, tc.code)
			}
		}
	}

	// 429: the one worker is held mid-plan and the one queue slot taken.
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gated := PlanOptions{Method: MethodRandom, SampleBudget: 30, Seed: 11, Progress: func(ProgressEvent) {
		once.Do(func() { close(started) })
		<-release
	}}
	held, err := svc.Submit(context.Background(), PlanRequest{Graph: g, Options: gated})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(context.Background(), PlanRequest{Graph: g, Options: memoOpts.Options()})
	if err != nil {
		t.Fatal(err)
	}
	shed := requestBody(t, g, PlanOptionsWire{Method: MethodRandom, SampleBudget: 8, Seed: 3})
	if rec, _ := postPlan(t, h, shed); rec.Code != http.StatusTooManyRequests {
		t.Errorf("POST against a full queue: %d, want 429", rec.Code)
	}
	close(release)
	for _, job := range []*Job{held, queued} {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := svc.memo.get(svc.structureTag(g)); !ok {
		t.Fatal("the memo does not hold the structure of the graph two jobs were keyed on")
	}
	if size, _ := svc.memo.snapshot(); size != 1 {
		t.Fatalf("the memo holds %d entries after only refused bodies, want 1 (the graph's structure)", size)
	}
}

// TestRequestMemoRefusesWhileDraining: a known body whose plan is cached is
// refused like any other request once admission has stopped — 503 with
// Retry-After. Mutation caught: the memo path admitting past the drain.
func TestRequestMemoRefusesWhileDraining(t *testing.T) {
	svc, h := memoTestService(t, ServiceOptions{Workers: 1})
	body := requestBody(t, CorpusGraphs(1)[3], memoOpts)
	if rec, _ := postPlan(t, h, body); rec.Code != http.StatusOK {
		t.Fatalf("first POST: %d", rec.Code)
	}
	svc.BeginDrain()
	rec, _ := postPlan(t, h, body)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != retryAfterValue {
		t.Fatalf("a known body while draining: %d, Retry-After %q; want 503 with Retry-After %s",
			rec.Code, rec.Header().Get("Retry-After"), retryAfterValue)
	}
	if st := svc.Stats(); st.RequestMemoHits != 0 || st.JobsSubmitted != 1 {
		t.Fatalf("memo hits %d, jobs submitted %d; want 0 and 1", st.RequestMemoHits, st.JobsSubmitted)
	}
}
