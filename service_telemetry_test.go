package mcmpart_test

// Tests for the telemetry layer and the accounting bugfixes it exposed:
// live queue depth (was: capacity), snapshot coherence under concurrent
// load, PlanBatch cancellation mapping, and the /metrics exposition
// agreeing with /v1/stats.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmpart"
)

// TestQueueDepthReportsLiveDepth pins the QueueDepth bugfix: the stat
// must report how many jobs are waiting right now (0 when idle, rising
// under pressure, falling back to 0), with the configured bound moved to
// the new QueueCapacity field. Pre-fix, QueueDepth always equaled the
// capacity.
func TestQueueDepthReportsLiveDepth(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1, QueueDepth: 2})
	g := smallGraph(t)
	ctx := context.Background()

	st := svc.Stats()
	if st.QueueDepth != 0 {
		t.Fatalf("idle QueueDepth = %d, want 0 (the live depth, not the capacity)", st.QueueDepth)
	}
	if st.QueueCapacity != 2 {
		t.Fatalf("QueueCapacity = %d, want 2", st.QueueCapacity)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	blocker, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: gatedOptions(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now pinned mid-plan

	var queued []*mcmpart.Job
	for i := 0; i < 2; i++ {
		job, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{
			Method: mcmpart.MethodRandom, SampleBudget: 10, Seed: int64(100 + i),
		}})
		if err != nil {
			t.Fatalf("queueing submission %d: %v", i, err)
		}
		queued = append(queued, job)
	}

	st = svc.Stats()
	if st.QueueDepth != 2 {
		t.Fatalf("QueueDepth with a full queue = %d, want 2", st.QueueDepth)
	}
	if st.JobsQueued != 2 {
		t.Fatalf("JobsQueued = %d, want 2", st.JobsQueued)
	}

	// One more distinct submission must shed — and be counted as shed,
	// not submitted.
	_, err = svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{
		Method: mcmpart.MethodRandom, SampleBudget: 10, Seed: 999,
	}})
	if !errors.Is(err, mcmpart.ErrBusy) {
		t.Fatalf("submission beyond capacity returned %v, want ErrBusy", err)
	}
	st = svc.Stats()
	if st.JobsShed != 1 {
		t.Fatalf("JobsShed = %d, want 1", st.JobsShed)
	}
	if st.JobsSubmitted != 3 {
		t.Fatalf("JobsSubmitted = %d, want 3 (the shed request must not count)", st.JobsSubmitted)
	}

	close(release)
	<-blocker.Done()
	for _, j := range queued {
		<-j.Done()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = svc.Stats()
		if st.QueueDepth == 0 && st.JobsQueued == 0 && st.JobsRunning == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsSnapshotCoherentUnderLoad pins the snapshot-coherence bugfix:
// in every snapshot — even sampled mid-burst — CacheHits+CacheMisses
// must be >= JobsSubmitted (each admission counts its cache outcome
// first), and the two sides must be equal once the load is done. Pre-fix,
// Stats read the cache counters and the job counters at different
// instants, so a concurrent sampler could observe submitted > hits+misses.
func TestStatsSnapshotCoherentUnderLoad(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2, QueueDepth: 256})
	g := smallGraph(t)
	const loaders = 4
	const perLoader = 25

	var wg sync.WaitGroup
	for w := 0; w < loaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perLoader; i++ {
				// 7 distinct keys: a mix of cold plans, cache hits, and
				// coalesced followers.
				job, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{
					Method: mcmpart.MethodRandom, SampleBudget: 5, Seed: int64(1 + (w*perLoader+i)%7),
				}})
				if err != nil {
					t.Errorf("loader %d submit %d: %v", w, i, err)
					return
				}
				<-job.Done()
			}
		}(w)
	}
	loadDone := make(chan struct{})
	go func() { wg.Wait(); close(loadDone) }()

	samples := 0
sampling:
	for {
		st := svc.Stats()
		samples++
		if got := st.CacheHits + st.CacheMisses; got < st.JobsSubmitted {
			t.Errorf("incoherent snapshot %d: CacheHits %d + CacheMisses %d < JobsSubmitted %d",
				samples, st.CacheHits, st.CacheMisses, st.JobsSubmitted)
		}
		select {
		case <-loadDone:
			break sampling
		default:
			runtime.Gosched()
		}
	}

	st := svc.Stats()
	if st.CacheHits+st.CacheMisses != st.JobsSubmitted {
		t.Fatalf("at quiescence CacheHits %d + CacheMisses %d != JobsSubmitted %d",
			st.CacheHits, st.CacheMisses, st.JobsSubmitted)
	}
	if st.JobsSubmitted != loaders*perLoader {
		t.Fatalf("JobsSubmitted = %d, want %d", st.JobsSubmitted, loaders*perLoader)
	}
	if st.JobsDone != st.JobsSubmitted {
		t.Fatalf("JobsDone = %d, want %d", st.JobsDone, st.JobsSubmitted)
	}
}

// TestScrapesAndLookupsDuringSubmitBurst is for -race: it drives, against a
// burst of cold submits, the two readers no other test runs against a
// writer — the mcmpart_cache_* gauge funcs, which read the plan cache's size
// at scrape time (planCache.snapshot), and the job table lookup
// (Service.Job). With the lock dropped from Service.Job the whole suite
// passed `go test -race . ./cmd/mcmpartd` clean before this test, and
// planCache.snapshot was caught only through Service.Stats; here -race
// reports both (DESIGN.md §12: every mutex-guarded field has such a test).
func TestScrapesAndLookupsDuringSubmitBurst(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2, QueueDepth: 256})
	h := mcmpart.NewHTTPHandler(svc)
	g := smallGraph(t)
	const loaders = 4
	const perLoader = 20

	ids := make(chan string, loaders*perLoader)
	var wg sync.WaitGroup
	for w := 0; w < loaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perLoader; i++ {
				// Every key distinct: each job registers, plans and puts.
				job, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: g, Options: mcmpart.PlanOptions{
					Method: mcmpart.MethodRandom, SampleBudget: 3, Seed: int64(1 + w*perLoader + i),
				}})
				if err != nil {
					t.Errorf("loader %d submit %d: %v", w, i, err)
					return
				}
				ids <- job.ID()
				if i%4 == 3 {
					<-job.Done()
				}
			}
		}(w)
	}
	loadDone := make(chan struct{})
	go func() { wg.Wait(); close(loadDone) }()

	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // the scraper
		defer readers.Done()
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "mcmpart_cache_entries ") {
				t.Errorf("GET /metrics = %d without mcmpart_cache_entries", rec.Code)
				return
			}
			select {
			case <-loadDone:
				return
			default:
			}
		}
	}()
	found := 0
	go func() { // the poller
		defer readers.Done()
		for {
			select {
			case id := <-ids:
				if _, ok := svc.Job(id); !ok {
					t.Errorf("job %s not addressable right after Submit returned it", id)
				}
				found++
			case <-loadDone:
				return
			}
		}
	}()
	readers.Wait()
	for len(ids) > 0 {
		<-ids
		found++
	}
	if found != loaders*perLoader {
		t.Fatalf("saw %d job IDs, want %d", found, loaders*perLoader)
	}
	if st := svc.Stats(); st.CacheEntries == 0 {
		t.Fatal("the burst left nothing in the cache: it never exercised put against the scraper")
	}
}

// TestScrapesAndHealthChecksDuringDrain is for -race, in the pattern of
// TestScrapesAndLookupsDuringSubmitBurst: GET /healthz and GET /metrics (the
// mcmpart_draining gauge func) read whether admission is stopped while
// BeginDrain and Drain stop it on another goroutine. Each reader polls from
// before the drain until it has reported the drain ten times, so it reads
// the flag both before and after it changes.
func TestScrapesAndHealthChecksDuringDrain(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2})
	h := mcmpart.NewHTTPHandler(svc)
	drained := map[string]func(*httptest.ResponseRecorder) bool{
		"/healthz": func(rec *httptest.ResponseRecorder) bool { return rec.Code == http.StatusServiceUnavailable },
		"/metrics": func(rec *httptest.ResponseRecorder) bool {
			return strings.Contains(rec.Body.String(), "\nmcmpart_draining 1\n")
		},
	}
	var warm, readers sync.WaitGroup
	for path, isDrained := range drained {
		warm.Add(1)
		readers.Add(1)
		go func() {
			defer readers.Done()
			warmed := sync.OnceFunc(warm.Done)
			defer warmed()
			deadline := time.Now().Add(10 * time.Second)
			for i, seen := 0, 0; seen < 10; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				switch {
				case isDrained(rec):
					seen++
				case rec.Code != http.StatusOK:
					t.Errorf("GET %s = %d", path, rec.Code)
					return
				case seen > 0:
					t.Errorf("GET %s reported the drain, then stopped reporting it", path)
					return
				}
				if i == 10 {
					warmed()
				}
				if time.Now().After(deadline) {
					t.Errorf("GET %s never reported the drain", path)
					return
				}
			}
		}()
	}
	warm.Wait()
	svc.BeginDrain()
	if err := svc.Drain(context.Background()); err != nil {
		t.Errorf("Drain: %v", err)
	}
	readers.Wait()
}

// TestKnownBodyBurstUnderScrapesAndLookups is for -race, in the pattern of
// TestScrapesAndLookupsDuringSubmitBurst: 16 goroutines POST one body — the
// first decode, plan, coalesce and write the request memo, the rest are read
// from it — while /metrics is scraped and every job ID returned is looked
// up. Every job ends with the same plan, the memo hits are cache hits, and
// once the burst is over the body is served through the memo.
func TestKnownBodyBurstUnderScrapesAndLookups(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2, QueueDepth: 256})
	h := mcmpart.NewHTTPHandler(svc)
	body, err := json.Marshal(mcmpart.PlanRequestWire{
		Graph:   smallGraph(t),
		Options: mcmpart.PlanOptionsWire{Method: mcmpart.MethodRandom, SampleBudget: 5, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec
	}
	const posters = 16
	const perPoster = 4

	ids := make(chan string, posters*perPoster)
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				rec := post()
				var st mcmpart.JobStatus
				if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
					t.Errorf("POST /v1/jobs = %d: %s", rec.Code, rec.Body)
					return
				}
				ids <- st.ID
			}
		}()
	}
	loadDone := make(chan struct{})
	go func() { wg.Wait(); close(loadDone) }()

	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // the scraper
		defer readers.Done()
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "mcmpart_request_memo_hits_total ") {
				t.Errorf("GET /metrics = %d without mcmpart_request_memo_hits_total", rec.Code)
				return
			}
			select {
			case <-loadDone:
				return
			default:
			}
		}
	}()
	var jobs []*mcmpart.Job
	go func() { // the poller
		defer readers.Done()
		for {
			select {
			case id := <-ids:
				job, ok := svc.Job(id)
				if !ok {
					t.Errorf("job %s not addressable right after POST returned it", id)
					continue
				}
				jobs = append(jobs, job)
			case <-loadDone:
				return
			}
		}
	}()
	readers.Wait()
	for len(ids) > 0 {
		job, ok := svc.Job(<-ids)
		if !ok {
			t.Fatal("a job not addressable after the burst")
		}
		jobs = append(jobs, job)
	}
	if len(jobs) != posters*perPoster {
		t.Fatalf("saw %d jobs, want %d", len(jobs), posters*perPoster)
	}
	want, err := jobs[0].Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs[1:] {
		got, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := resultsBitIdentical(want, got); err != nil {
			t.Fatalf("job %s: %v", job.ID(), err)
		}
	}
	st := svc.Stats()
	if st.RequestMemoHits > st.CacheHits+st.DiskCacheHits {
		t.Fatalf("memo hits %d but cache hits %d+%d", st.RequestMemoHits, st.CacheHits, st.DiskCacheHits)
	}
	if rec := post(); rec.Code != http.StatusAccepted || svc.Stats().RequestMemoHits != st.RequestMemoHits+1 {
		t.Fatalf("the body after the burst: %d, not served through the memo", rec.Code)
	}
}

// TestPlanBatchCtxCancel covers the mid-batch cancellation path: the
// results slice stays index-aligned with the requests, the returned error
// is the first failure in request order, and no goroutines leak.
func TestPlanBatchCtxCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1, QueueDepth: 8})
	g := smallGraph(t)
	started := make(chan struct{})
	release := make(chan struct{})
	fast := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 10, Seed: 3}
	reqs := []mcmpart.PlanRequest{
		{Graph: g, Options: fast},                           // [0] completes before the cancel
		{Graph: g, Options: gatedOptions(started, release)}, // [1] blocks mid-plan, then is cancelled
		{Graph: g, Options: mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 10, Seed: 4}}, // [2] cancelled while queued
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-started // [0] is done (single worker, FIFO) and [1] is mid-plan
		cancel()
		// Keep [1] pinned at its first sample until PlanBatch's wait loop
		// has reacted to the cancellation (it cancels each remaining job);
		// opening the gate immediately would let [1] finish all its samples
		// before its job context is ever cancelled.
		time.Sleep(200 * time.Millisecond)
		close(release)
	}()

	results, err := svc.PlanBatch(ctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PlanBatch error = %v, want context.Canceled (the first failure in request order)", err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("results has %d entries for %d requests", len(results), len(reqs))
	}
	if results[0] == nil {
		t.Fatal("results[0] is nil: the completed request lost its slot in the index mapping")
	}
	// Index 0's slot must hold exactly the plan for request 0: replanning
	// the same request (a cache hit now) is bit-identical.
	want, err := svc.Plan(context.Background(), g, fast)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsBitIdentical(results[0], want); err != nil {
		t.Fatalf("results[0] does not match its request: %v", err)
	}
	if results[2] != nil {
		t.Fatalf("results[2] = %+v, want nil (cancelled while queued, never planned)", results[2])
	}

	svc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrapeMetrics fetches url and parses the Prometheus text exposition
// into series → value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics Content-Type = %q", ct)
	}
	return parseExposition(t, resp.Body)
}

// parseExposition parses a Prometheus text exposition into series → value.
func parseExposition(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkStatsMatchMetrics fails t unless every metric-tagged field of st
// equals the series its tag names in metrics. Only the disk tier's series
// may be absent (a service without a CacheDir), and their fields then read 0.
func checkStatsMatchMetrics(t *testing.T, st mcmpart.ServiceStats, metrics map[string]float64) {
	t.Helper()
	sv := reflect.ValueOf(st)
	for i := 0; i < sv.NumField(); i++ {
		series, ok := sv.Type().Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		var stat float64
		switch f := sv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			stat = float64(f.Int())
		case reflect.Uint64:
			stat = float64(f.Uint())
		case reflect.Bool:
			if f.Bool() {
				stat = 1
			}
		}
		got, present := metrics[series]
		if got != stat || !present && !strings.HasPrefix(series, "mcmpart_disk_") {
			t.Errorf("%s = %v (present %v) in the exposition but %s = %v in the stats", series, got, present, sv.Type().Field(i).Name, stat)
		}
	}
}

// TestMetricsEndpointMatchesStats drives a cold plan and a warm repeat
// through the HTTP handler, then cross-checks the /metrics exposition
// against /v1/stats: both views read the same registry, so every shared
// counter must agree exactly.
func TestMetricsEndpointMatchesStats(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2})
	srv := httptest.NewServer(mcmpart.NewHTTPHandler(svc))
	defer srv.Close()

	body, err := json.Marshal(mcmpart.PlanRequestWire{
		Graph:   smallGraph(t),
		Options: mcmpart.PlanOptionsWire{Method: mcmpart.MethodRandom, SampleBudget: 10, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // cold, then warm
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %d: HTTP %d", i, resp.StatusCode)
		}
	}

	var st mcmpart.ServiceStats
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	metrics := scrapeMetrics(t, srv.URL+"/metrics")
	checkStatsMatchMetrics(t, st, metrics) // no CacheDir: the disk series are absent
	if st.JobsSubmitted != 2 || st.CacheHits != 1 || st.CacheMisses != 1 || st.PlansExecuted != 1 {
		t.Fatalf("workload accounting off: %+v", st)
	}
	// The handler's own traffic is measured too: two plan requests and the
	// stats request preceded this scrape.
	if got := metrics[`mcmpart_http_requests_total{code="200",route="POST /v1/plan"}`]; got != 2 {
		t.Errorf(`mcmpart_http_requests_total{code="200",route="POST /v1/plan"} = %v, want 2`, got)
	}
	if got := metrics[`mcmpart_queue_capacity`]; got != float64(st.QueueCapacity) {
		t.Errorf("mcmpart_queue_capacity = %v, stats say %d", got, st.QueueCapacity)
	}
}

// TestRequestIDPropagation pins the correlation contract: a caller's
// X-Request-ID is echoed on the response, stamped into the job's status,
// and survives into later polls of the same job; absent a caller ID the
// handler generates one.
func TestRequestIDPropagation(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 2})
	srv := httptest.NewServer(mcmpart.NewHTTPHandler(svc))
	defer srv.Close()

	body, err := json.Marshal(mcmpart.PlanRequestWire{
		Graph:   smallGraph(t),
		Options: mcmpart.PlanOptionsWire{Method: mcmpart.MethodRandom, SampleBudget: 10, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "corr-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Request-ID") != "corr-42" {
		t.Fatalf("response X-Request-ID = %q, want corr-42", resp.Header.Get("X-Request-ID"))
	}
	var st mcmpart.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.RequestID != "corr-42" {
		t.Fatalf("JobStatus.RequestID = %q, want corr-42", st.RequestID)
	}

	// The ID sticks to the job across later polls.
	var jr mcmpart.JobResponse
	pollResp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(pollResp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	pollResp.Body.Close()
	if jr.RequestID != "corr-42" {
		t.Fatalf("polled RequestID = %q, want corr-42", jr.RequestID)
	}

	// No caller ID: the handler generates one.
	resp2, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Fatal("no generated X-Request-ID on a header-less request")
	}

	if job, ok := svc.Job(st.ID); ok {
		_, _ = job.Wait(context.Background())
	} else {
		t.Fatalf("job %s not found", st.ID)
	}
}
