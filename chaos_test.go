package mcmpart_test

import (
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
// and once the faults stop, every key plans cleanly.
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
	t.Logf("chaos: %d ok, %d failed (typed), faults fired: eval=%s http=%s dw=%s dr=%s",
		successes, failures,
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
	if st := svc.Stats(); st.DiskCacheWriteErrors == 0 && st.DiskCacheWrites == 0 {
		t.Error("disk tier never exercised under chaos")
	}
}

func firedCount(s *faultinject.Set, p faultinject.Point) string {
	hits, fired := s.Counts(p)
	return fmt.Sprintf("%d/%d", fired, hits)
}
