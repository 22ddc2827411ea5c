package main

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcmpart"
)

// scrape fetches the daemon's /metrics exposition and parses it into
// series → value (series keys keep their label sets, e.g.
// `mcmpart_jobs_total{state="done"}`) and the set of families its # TYPE
// lines declare.
func scrape(t *testing.T, baseURL string) (map[string]float64, map[string]bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
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
	out, families := make(map[string]float64), make(map[string]bool)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(decl, " ")
			families[name] = true
		}
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
	return out, families
}

// metricFamilies is the documented scrape surface of a daemon with a disk
// tier (DESIGN.md §14), and the one list of it: TestDaemonMetricsMatchStats
// requires /metrics to declare exactly these families.
var metricFamilies = []string{
	"mcmpart_jobs_submitted_total", "mcmpart_jobs_shed_total", "mcmpart_jobs_total",
	"mcmpart_jobs_queued", "mcmpart_jobs_running",
	"mcmpart_cache_hits_total", "mcmpart_cache_misses_total", "mcmpart_plans_executed_total",
	"mcmpart_plans_coalesced_total", "mcmpart_plan_seconds", "mcmpart_queue_depth",
	"mcmpart_queue_capacity", "mcmpart_workers", "mcmpart_workers_busy", "mcmpart_cache_entries",
	"mcmpart_draining", "mcmpart_http_requests_total",
	"mcmpart_http_request_seconds", "mcmpart_disk_writes_total", "mcmpart_disk_write_errors_total",
	"mcmpart_disk_quarantined_total", "mcmpart_disk_read_seconds", "mcmpart_disk_write_seconds",
	"mcmpart_request_memo_hits_total", "mcmpart_deployment_reuses_total", "mcmpart_retained_bytes",
	"mcmpart_evictions_total", "mcmpart_rl_plans_total", "mcmpart_structure_memo_hits_total",
}

// TestDaemonMetricsMatchStats is the telemetry acceptance test: boot the
// daemon with one worker, a one-slot queue and a disk tier (so the
// mcmpart_disk_* families exist), run the scripted workload —
// a cold plan, a warm repeat, a coalesced burst behind a slow plan, one
// shed request — and assert the /metrics exposition agrees with /v1/stats
// counter for counter, with every value equal to what the script implies.
func TestDaemonMetricsMatchStats(t *testing.T) {
	d := bootDaemonHandle(t, []string{"-addr", "127.0.0.1:0", "-mcm", "dev8", "-pool-workers", "1", "-queue", "1", "-cache-dir", t.TempDir()})
	cl := d.Client
	ctx := context.Background()
	g := mcmpart.CorpusGraphs(1)[84]

	// Cold plan, then the warm repeat: the Client marshals the graph to the
	// same bytes, so the second, identical POST is served through the
	// request memo.
	fast := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 15, Seed: 3}
	cold, err := cl.Plan(ctx, g, fast)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first plan cannot be a cache hit")
	}
	warm, err := cl.Plan(ctx, g, fast)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second identical plan must be a cache hit")
	}

	// A slow plan to pin the single worker, then a coalesced burst of
	// identical requests riding its flight.
	slow := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 100000, Seed: 9}
	leader, err := cl.SubmitJob(ctx, g, slow)
	if err != nil {
		t.Fatal(err)
	}
	if leader.Cached || leader.Coalesced {
		t.Fatalf("leader job unexpectedly cached/coalesced: %+v", leader)
	}
	followers := make([]mcmpart.JobStatus, 3)
	for i := range followers {
		followers[i], err = cl.SubmitJob(ctx, g, slow)
		if err != nil {
			t.Fatal(err)
		}
		if !followers[i].Coalesced {
			t.Fatalf("follower %d not coalesced: %+v", i, followers[i])
		}
	}

	// Once the worker has dequeued the leader, a distinct request takes the
	// single queue slot; the next distinct request must shed with 429/ErrBusy.
	for {
		jr, err := cl.JobStatus(ctx, leader.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jr.State == mcmpart.JobRunning {
			break
		}
		if jr.State != mcmpart.JobQueued {
			t.Fatalf("leader finished %s before the queue slot was taken: %+v", jr.State, jr)
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := cl.SubmitJob(ctx, g, mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 15, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitJob(ctx, g, mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 15, Seed: 11}); !errors.Is(err, mcmpart.ErrBusy) {
		t.Fatalf("submission beyond queue capacity returned %v, want ErrBusy", err)
	}

	// Quiesce: every admitted job runs to done.
	for _, id := range []string{leader.ID, followers[0].ID, followers[1].ID, followers[2].ID, queued.ID} {
		jr, err := cl.WaitJob(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("waiting for %s: %v", id, err)
		}
		if jr.State != mcmpart.JobDone {
			t.Fatalf("job %s finished %s: %+v", id, jr.State, jr)
		}
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	metrics, families := scrape(t, cl.BaseURL())
	for _, name := range metricFamilies {
		if !families[name] {
			t.Errorf("metric family %s missing from /metrics", name)
		}
		delete(families, name)
	}
	for name := range families {
		t.Errorf("/metrics declares %s, which metricFamilies does not list: document it (DESIGN.md §14) and add it", name)
	}

	// The scripted workload fully determines the counters: 2 sync plans +
	// leader + 3 followers + 1 queued admitted (the shed one rejected, so
	// it counts on no tier). Only the warm repeat hit the memory cache;
	// the other 6 admissions missed it, and of those, cold, leader, and
	// queued executed a plan.
	want := []struct {
		series string
		value  float64
	}{
		{`mcmpart_jobs_submitted_total`, 7},
		{`mcmpart_jobs_total{state="done"}`, 7},
		{`mcmpart_jobs_total{state="failed"}`, 0},
		{`mcmpart_jobs_total{state="cancelled"}`, 0},
		{`mcmpart_jobs_shed_total`, 1},
		{`mcmpart_cache_hits_total{tier="memory"}`, 1},
		{`mcmpart_cache_misses_total{tier="memory"}`, 6},
		{`mcmpart_cache_hits_total{tier="disk"}`, 0},
		{`mcmpart_request_memo_hits_total`, 1},
		// Every request after the cold one sends g's structure again: the
		// leader, its three followers, the queued and the shed request are
		// keyed with no fingerprint (the warm repeat skips keying).
		{`mcmpart_structure_memo_hits_total`, 6},
		{`mcmpart_plans_executed_total`, 3},
		{`mcmpart_plans_coalesced_total`, 3},
		{`mcmpart_deployment_reuses_total`, 0},             // the script plans no deployed-policy method
		{`mcmpart_retained_bytes{store="deployments"}`, 0}, // and the daemon has no policy installed
		{`mcmpart_retained_bytes{store="training"}`, 0},    // nor an RL-from-scratch method
		{`mcmpart_rl_plans_total{kit="new"}`, 0},
		{`mcmpart_rl_plans_total{kit="reused"}`, 0},
		// Every store's bound holds what the script leaves.
		{`mcmpart_evictions_total{store="cache"}`, 0},
		{`mcmpart_evictions_total{store="memo"}`, 0},
		{`mcmpart_evictions_total{store="jobs"}`, 0},
		{`mcmpart_evictions_total{store="deployments"}`, 0},
		{`mcmpart_evictions_total{store="training"}`, 0},
		{`mcmpart_disk_writes_total`, 3},
		{`mcmpart_plan_seconds_count{path="cold"}`, 3},
		{`mcmpart_plan_seconds_count{path="warm"}`, 1},
		{`mcmpart_jobs_queued`, 0},
		{`mcmpart_jobs_running`, 0},
		{`mcmpart_queue_depth`, 0},
		{`mcmpart_queue_capacity`, 1},
		{`mcmpart_workers`, 1},
		{`mcmpart_workers_busy`, 0},
		{`mcmpart_draining`, 0},
		{`mcmpart_http_requests_total{code="200",route="POST /v1/plan"}`, 2},
		{`mcmpart_http_requests_total{code="429",route="POST /v1/jobs"}`, 1},
	}
	for _, w := range want {
		got, ok := metrics[w.series]
		if !ok {
			t.Errorf("series %s missing from /metrics", w.series)
			continue
		}
		if got != w.value {
			t.Errorf("%s = %v, want %v", w.series, got, w.value)
		}
	}
	// The stores that outlive a request hold what the script left: its
	// three plans, the known body, its seven jobs. Each counts bytes, which
	// the stats below must agree with.
	for _, store := range []string{"cache", "memo", "jobs"} {
		if series := `mcmpart_retained_bytes{store="` + store + `"}`; metrics[series] <= 0 {
			t.Errorf("%s = %v, want the bytes of what the script left", series, metrics[series])
		}
	}

	// /v1/stats and /metrics are two views of one registry: every field of
	// ServiceStats with a metric tag must equal the series the tag names, and
	// a number or bool without one must be a fact that reads no instrument.
	sv := reflect.ValueOf(*stats)
	for i := 0; i < sv.NumField(); i++ {
		field := sv.Type().Field(i)
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
		default:
			continue
		}
		series, ok := field.Tag.Lookup("metric")
		if !ok {
			if field.Name != "RegistryPolicies" && field.Name != "PolicyInstalled" {
				t.Errorf("ServiceStats.%s has no metric tag: name the /metrics series it reads", field.Name)
			}
			continue
		}
		if got, ok := metrics[series]; !ok || got != stat {
			t.Errorf("%s = %v (present %v) on /metrics but %s = %v on /v1/stats", series, got, ok, field.Name, stat)
		}
	}

	// A histogram family is its _sum, _bucket and _count series.
	for _, series := range []string{
		`mcmpart_plan_seconds_sum{path="cold"}`,
		`mcmpart_plan_seconds_bucket{path="cold",le="+Inf"}`,
		`mcmpart_http_request_seconds_count{route="POST /v1/plan"}`,
	} {
		if _, ok := metrics[series]; !ok {
			t.Errorf("series %s missing from /metrics", series)
		}
	}
}
