package mcmpart

import (
	"context"
	"sync"
	"testing"
)

// TestJobStatusReportsItsTier: a job's Status reads how it was served off
// the tier admit registered it under and nothing else — Cached for a
// terminal memory or disk hit, Coalesced for a follower — one row per way a
// request becomes a job.
func TestJobStatusReportsItsTier(t *testing.T) {
	ctx := context.Background()
	req := PlanRequest{Graph: CorpusGraphs(1)[0], Options: PlanOptions{Method: MethodRandom, SampleBudget: 8, Seed: 3}}
	open := func(t *testing.T, opts ServiceOptions) *Service {
		svc, err := NewService(Dev8(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		return svc
	}
	submit := func(t *testing.T, svc *Service, req PlanRequest) *Job {
		job, err := svc.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	planned := func(t *testing.T, svc *Service) {
		if _, err := svc.Plan(ctx, req.Graph, req.Options); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name              string
		tier              string
		cached, coalesced bool
		job               func(t *testing.T) *Job
	}{
		{"planner", tierPlanner, false, false, func(t *testing.T) *Job {
			return submit(t, open(t, ServiceOptions{}), req)
		}},
		{"memory", tierMemory, true, false, func(t *testing.T) *Job {
			svc := open(t, ServiceOptions{})
			planned(t, svc)
			return submit(t, svc, req)
		}},
		{"disk", tierDisk, true, false, func(t *testing.T) *Job {
			dir := t.TempDir()
			first := open(t, ServiceOptions{CacheDir: dir})
			planned(t, first)
			first.Close()
			return submit(t, open(t, ServiceOptions{CacheDir: dir}), req)
		}},
		{"coalesced", tierCoalesced, false, true, func(t *testing.T) *Job {
			svc := open(t, ServiceOptions{Workers: 1})
			started, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			gated := req
			gated.Options.Progress = func(ProgressEvent) {
				once.Do(func() { close(started) })
				<-release
			}
			submit(t, svc, gated)
			<-started
			follower := submit(t, svc, req)
			close(release)
			return follower
		}},
		// The memory tier's re-check under Service.mu: the plan is stored
		// between the request's lookup miss and its admission.
		{"memory re-check", tierMemory, true, false, func(t *testing.T) *Job {
			svc := open(t, ServiceOptions{})
			a := admission{start: svc.now()}
			if err := svc.normalize(ctx, req, &a); err != nil {
				t.Fatal(err)
			}
			svc.keyRequest(&a)
			res, err := svc.Planner().Plan(ctx, req.Graph, req.Options)
			if err != nil {
				t.Fatal(err)
			}
			canonicalize(res, a.pos)
			svc.store(a.key, res)
			job, err := svc.admit(&a, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			return job
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := tc.job(t)
			if _, err := job.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			st := job.Status()
			if tier, _ := job.served(); tier != tc.tier || st.State != JobDone || st.Cached != tc.cached || st.Coalesced != tc.coalesced {
				t.Fatalf("tier %q, status %+v: want tier %q, done, cached %t, coalesced %t", tier, st, tc.tier, tc.cached, tc.coalesced)
			}
		})
	}
}
