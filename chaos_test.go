package mcmpart_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mcmpart"
	"mcmpart/internal/faultinject"
)

// chainGraph builds an n-node linear graph; different n means a different
// fingerprint, so the chaos suite exercises several cache keys at once.
func chainGraph(t *testing.T, n int) *mcmpart.Graph {
	t.Helper()
	g := mcmpart.NewGraph(fmt.Sprintf("chaos-%d", n))
	prev := -1
	for i := 0; i < n; i++ {
		id := g.AddNode(mcmpart.Node{
			Name:        "fc",
			Op:          mcmpart.OpKind(4), // matmul
			FLOPs:       1e9,
			ParamBytes:  1 << 20,
			OutputBytes: 1 << 16,
		})
		if prev >= 0 {
			g.MustAddEdge(prev, id, 1<<16)
		}
		prev = id
	}
	return g
}

// TestChaosDaemonUnderInjectedFaults is the fault-injection harness'
// integration oracle: a retrying client hammers the service through the
// real HTTP stack while evaluator errors, truncated responses, and disk
// faults fire on a seeded schedule. The contract under chaos is absolute:
// every request either returns the bit-identical correct plan for its key
// or a typed error — never a corrupt, invalid, or non-deterministic plan —
// and once the faults stop, every key plans cleanly. The accounting holds
// too: every snapshot taken during the storm keeps the tier-before-submit
// ordering, and at quiescence the job and tier counters balance and Stats
// equals the exposition.
func TestChaosDaemonUnderInjectedFaults(t *testing.T) {
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 25, Seed: 9}
	graphs := []*mcmpart.Graph{chainGraph(t, 8), chainGraph(t, 10), chainGraph(t, 12), chainGraph(t, 14)}

	// Ground truth, computed before any fault is armed.
	control := newTestService(t, mcmpart.ServiceOptions{})
	want := make([]*mcmpart.Result, len(graphs))
	for i, g := range graphs {
		res, err := control.Plan(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := mcmpart.Validate(g, control.Package(), res.Partition); err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	svc := newTestService(t, mcmpart.ServiceOptions{
		Workers:  4,
		CacheDir: filepath.Join(t.TempDir(), "plans"),
	})
	srv := httptest.NewServer(faultinject.Middleware(mcmpart.NewHTTPHandler(svc)))
	defer srv.Close()

	set := faultinject.NewSet(42,
		faultinject.Rule{Point: faultinject.PointPlanEvaluate, Fault: faultinject.Fault{Err: errors.New("chaos: evaluator")}, Prob: 0.2},
		faultinject.Rule{Point: faultinject.PointHTTPResponse, Fault: faultinject.Fault{Truncate: true}, Prob: 0.15},
		faultinject.Rule{Point: faultinject.PointDiskWrite, Fault: faultinject.Fault{Err: errors.New("chaos: disk write")}, Prob: 0.5},
		faultinject.Rule{Point: faultinject.PointDiskRead, Fault: faultinject.Fault{Err: errors.New("chaos: disk read")}, Prob: 0.5},
	)
	faultinject.Enable(set)
	t.Cleanup(faultinject.Disable)

	client := mcmpart.NewClient(srv.URL, nil, mcmpart.ClientOptions{
		MaxRetries:  6,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Seed:        3,
	})

	// The metrics oracle (DESIGN.md §14.3) reads in-process throughout the
	// storm: over HTTP the fault middleware would truncate the scrape. Fill
	// is not an atomic snapshot, so the admission ordering is all a mid-run
	// read can assert.
	stopOracle := make(chan struct{})
	oracleReads := make(chan int)
	go func() {
		reads := 0
		defer func() { oracleReads <- reads }()
		for {
			select {
			case <-stopOracle:
				return
			default:
			}
			st := svc.Stats()
			reads++
			if st.CacheHits+st.CacheMisses < st.JobsSubmitted {
				t.Errorf("snapshot %d under chaos: cache hits %d + misses %d < jobs submitted %d", reads, st.CacheHits, st.CacheMisses, st.JobsSubmitted)
				return
			}
		}
	}()

	const requests = 48
	var wg sync.WaitGroup
	var mu sync.Mutex
	successes, failures := 0, 0
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gi := i % len(graphs)
			resp, err := client.Plan(context.Background(), graphs[gi], opts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// Every failure must be a surfaced, typed condition: a daemon
				// error response (APIError) or a transport failure the retry
				// budget could not outlast — never a mangled 2xx.
				var apiErr *mcmpart.APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode/100 == 2 {
					t.Errorf("request %d: 2xx wrapped in an error: %v", i, err)
				}
				failures++
				return
			}
			res := resp.Result.Result()
			if res == nil {
				t.Errorf("request %d: success with no result", i)
				return
			}
			if err := mcmpart.Validate(graphs[gi], svc.Package(), res.Partition); err != nil {
				t.Errorf("request %d: invalid partition under chaos: %v", i, err)
			}
			if err := resultsBitIdentical(want[gi], res); err != nil {
				t.Errorf("request %d: non-deterministic plan under chaos: %v", i, err)
			}
			successes++
		}(i)
	}
	wg.Wait()
	close(stopOracle)
	snapshots := <-oracleReads
	if snapshots == 0 {
		t.Error("the metrics oracle never read a snapshot under chaos")
	}

	if successes == 0 {
		t.Fatal("chaos schedule drowned every request; the suite proved nothing")
	}
	firedSomething := false
	for _, p := range []faultinject.Point{faultinject.PointPlanEvaluate, faultinject.PointHTTPResponse, faultinject.PointDiskWrite, faultinject.PointDiskRead} {
		if _, fired := set.Counts(p); fired > 0 {
			firedSomething = true
		}
	}
	if !firedSomething {
		t.Fatal("no fault ever fired; the suite proved nothing")
	}
	t.Logf("chaos: %d ok, %d failed (typed), %d snapshots, faults fired: eval=%s http=%s dw=%s dr=%s",
		successes, failures, snapshots,
		firedCount(set, faultinject.PointPlanEvaluate),
		firedCount(set, faultinject.PointHTTPResponse),
		firedCount(set, faultinject.PointDiskWrite),
		firedCount(set, faultinject.PointDiskRead))

	// Calm after the storm: with faults off, every key plans cleanly and
	// lands on the same answer as the pristine control service.
	faultinject.Disable()
	for gi, g := range graphs {
		resp, err := client.Plan(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("graph %d after chaos: %v", gi, err)
		}
		if err := resultsBitIdentical(want[gi], resp.Result.Result()); err != nil {
			t.Fatalf("graph %d after chaos diverged: %v", gi, err)
		}
	}
	st := svc.Stats()
	if st.DiskCacheWriteErrors == 0 && st.DiskCacheWrites == 0 {
		t.Error("disk tier never exercised under chaos")
	}

	// Quiescent accounting: every admitted job is terminal and counted on
	// exactly one memory tier, and Stats and the exposition read the same
	// instruments.
	if st.JobsQueued != 0 || st.JobsRunning != 0 {
		t.Errorf("after chaos: %d jobs queued, %d running, want none", st.JobsQueued, st.JobsRunning)
	}
	if ended := st.JobsDone + st.JobsFailed + st.JobsCancelled; st.JobsSubmitted != ended {
		t.Errorf("after chaos: %d jobs submitted but %d ended (done %d, failed %d, cancelled %d)",
			st.JobsSubmitted, ended, st.JobsDone, st.JobsFailed, st.JobsCancelled)
	}
	if st.CacheHits+st.CacheMisses != st.JobsSubmitted {
		t.Errorf("after chaos: cache hits %d + misses %d != jobs submitted %d", st.CacheHits, st.CacheMisses, st.JobsSubmitted)
	}
	// A memo hit is a cache hit counted first, and the memo counter is read
	// after the Cache block: only at quiescence is the bound exact.
	if st.RequestMemoHits > st.CacheHits+st.DiskCacheHits {
		t.Errorf("after chaos: %d requests served through the memo but %d+%d cache hits", st.RequestMemoHits, st.CacheHits, st.DiskCacheHits)
	}
	var exposition bytes.Buffer
	if err := svc.Metrics().WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	checkStatsMatchMetrics(t, st, parseExposition(t, &exposition))
}

func firedCount(s *faultinject.Set, p faultinject.Point) string {
	hits, fired := s.Counts(p)
	return fmt.Sprintf("%d/%d", fired, hits)
}
