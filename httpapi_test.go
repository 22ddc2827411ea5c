package mcmpart_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcmpart"
)

func newTestServer(t *testing.T, opts mcmpart.ServiceOptions) (*mcmpart.Service, *mcmpart.Client) {
	t.Helper()
	svc, err := mcmpart.NewService(mcmpart.Dev4(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mcmpart.NewHTTPHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, mcmpart.NewClient(srv.URL, srv.Client(), mcmpart.ClientOptions{})
}

// TestFirstScrapeListsEveryRoute: every pattern the API serves (the table at
// the top of httpapi.go) has its latency histogram on a fresh handler's first
// scrape, at zero, and no other route has one.
func TestFirstScrapeListsEveryRoute(t *testing.T) {
	svc, err := mcmpart.NewService(mcmpart.Dev4(), mcmpart.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rec := httptest.NewRecorder()
	mcmpart.NewHTTPHandler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	routes := []string{
		"POST /v1/plan", "POST /v1/jobs", "GET /v1/jobs/{id}", "DELETE /v1/jobs/{id}",
		"GET /v1/policies", "GET /v1/stats", "GET /metrics", "GET /healthz",
	}
	for _, route := range routes {
		if want := `mcmpart_http_request_seconds_count{route="` + route + `"} 0` + "\n"; !strings.Contains(body, want) {
			t.Errorf("first scrape lacks %q", strings.TrimSpace(want))
		}
	}
	if n := strings.Count(body, "mcmpart_http_request_seconds_count{"); n != len(routes) {
		t.Errorf("first scrape has %d route latency histograms, want %d", n, len(routes))
	}
}

func TestHTTPPlanRoundTripAndCache(t *testing.T) {
	svc, cl := newTestServer(t, mcmpart.ServiceOptions{Workers: 2})
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	g := smallGraph(t)
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 25, Seed: 11}
	first, err := cl.Plan(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Result == nil || len(first.Result.Partition) != g.NumNodes() {
		t.Fatalf("unexpected first response: %+v", first)
	}
	if first.GraphFingerprint != g.Fingerprint() {
		t.Fatal("response fingerprint mismatch")
	}
	second, err := cl.Plan(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical plan must be served from the cache")
	}
	if err := resultsBitIdentical(first.Result.Result(), second.Result.Result()); err != nil {
		t.Fatalf("cached response not bit-identical over the wire: %v", err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1 / 1", stats.CacheHits, stats.CacheMisses)
	}
	if stats.Package != svc.Package().Name {
		t.Fatalf("stats package %q", stats.Package)
	}
}

func TestHTTPJobLifecycle(t *testing.T) {
	_, cl := newTestServer(t, mcmpart.ServiceOptions{Workers: 1})
	ctx := context.Background()
	g := smallGraph(t)
	st, err := cl.SubmitJob(ctx, g, mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("job has no ID: %+v", st)
	}
	final, err := cl.WaitJob(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != mcmpart.JobDone || final.Result == nil {
		t.Fatalf("job did not complete: %+v", final)
	}
	if final.Samples != final.Result.Samples {
		t.Fatalf("status samples %d != result samples %d", final.Samples, final.Result.Samples)
	}

	// Unknown job IDs are 404s with a useful message.
	if _, err := cl.JobStatus(ctx, "job-999999"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("want unknown-job error, got %v", err)
	}
}

func TestHTTPJobCancel(t *testing.T) {
	_, cl := newTestServer(t, mcmpart.ServiceOptions{Workers: 1})
	ctx := context.Background()
	st, err := cl.SubmitJob(ctx, smallGraph(t), mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 1_000_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some progress, then cancel over the wire.
	deadline := time.Now().Add(5 * time.Second)
	for {
		js, err := cl.JobStatus(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.Samples > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := cl.CancelJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitJob(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != mcmpart.JobCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if final.Result == nil || len(final.Result.Partition) == 0 {
		t.Fatal("cancelled job must report its best-so-far result")
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, cl := newTestServer(t, mcmpart.ServiceOptions{})
	ctx := context.Background()
	// Malformed options → 400 with the validation message.
	_, err := cl.Plan(ctx, smallGraph(t), mcmpart.PlanOptions{SampleBudget: -4})
	if err == nil || !strings.Contains(err.Error(), "negative") || !strings.Contains(err.Error(), "400") {
		t.Fatalf("want 400 negative-budget error, got %v", err)
	}
	// Zero-shot without a policy → 409.
	_, err = cl.Plan(ctx, smallGraph(t), mcmpart.PlanOptions{Method: mcmpart.MethodZeroShot})
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("want 409 missing-policy error, got %v", err)
	}
	// Raw malformed body → 400.
	resp, err := http.Post(clBase(cl)+"/v1/plan", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body got HTTP %d", resp.StatusCode)
	}
}

// clBase digs the base URL back out of the client for raw-HTTP checks.
func clBase(cl *mcmpart.Client) string { return cl.BaseURL() }
