package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"mcmpart"
	"mcmpart/internal/conformance"
)

// TestDaemonDrainAndRestartFromDiskCache is the PR's acceptance test for
// the fault-tolerant serving core, end to end through the real daemon:
//
//  1. boot mcmpartd with a persistent cache dir and plan a graph;
//  2. SIGTERM while a second plan is in flight — the in-flight plan runs
//     to completion under the drain, while a late request is refused with
//     503 + Retry-After;
//  3. a restarted daemon over the same cache dir serves both plans from
//     disk, the first bit-identical to the pre-restart response
//     (conformance.DiffResults clean), with the disk-tier hit counted.
func TestDaemonDrainAndRestartFromDiskCache(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "plans")
	args := []string{
		"-addr", "127.0.0.1:0", "-mcm", "dev8",
		"-pool-workers", "1",
		"-cache-dir", cacheDir,
		"-drain-timeout", "60s",
	}
	ctx := context.Background()
	corpus := mcmpart.CorpusGraphs(1)
	graphA, graphB := corpus[84], corpus[85]
	optsA := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 15, Seed: 3}

	d := bootDaemonHandle(t, args)

	// First plan: cold, written through to the disk tier. Its duration
	// calibrates the in-flight plan's budget below.
	coldStart := time.Now()
	first, err := d.Client.Plan(ctx, graphA, optsA)
	if err != nil {
		t.Fatal(err)
	}
	coldElapsed := time.Since(coldStart)
	if stats, err := d.Client.Stats(ctx); err != nil || stats.DiskCacheWrites < 1 {
		t.Fatalf("plan not persisted: stats=%+v err=%v", stats, err)
	}

	// Size the second plan to run for a few seconds: long enough that the
	// signal provably lands mid-plan, short enough to finish well inside
	// the drain timeout on any machine.
	perSample := coldElapsed / time.Duration(optsA.SampleBudget)
	if perSample <= 0 {
		perSample = 50 * time.Microsecond
	}
	budgetB := int(4 * time.Second / perSample)
	if budgetB < 500 {
		budgetB = 500
	}
	if budgetB > 2_000_000 {
		budgetB = 2_000_000
	}
	optsB := mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: budgetB, Seed: 5}
	job, err := d.Client.SubmitJob(ctx, graphB, optsB)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := d.Client.JobStatus(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == mcmpart.JobRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("calibrated plan finished before the signal could land (budget %d, state %s)", budgetB, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (state %s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// SIGTERM with the plan provably in flight.
	d.Signal()

	// The drain must refuse new work with 503 + Retry-After while the
	// in-flight plan keeps running. (The first probes may race ahead of
	// the drain goroutine and still be admitted as cache hits — retry
	// until the drain is observed.)
	var apiErr *mcmpart.APIError
	refuseDeadline := time.Now().Add(10 * time.Second)
	for {
		_, err := d.Client.Plan(ctx, graphA, optsA)
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(refuseDeadline) {
			t.Fatalf("draining daemon kept admitting plans (last err: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("503 during drain carried no Retry-After: %+v", apiErr)
	}

	if code := d.Wait(t); code != 0 {
		t.Fatalf("daemon exited %d after drain", code)
	}

	// Restart over the same cache directory: both plans — the synchronous
	// first one and the one that completed under the drain — must be
	// served from disk without re-planning.
	d2 := bootDaemonHandle(t, args)
	restarted, err := d2.Client.Plan(ctx, graphA, optsA)
	if err != nil {
		t.Fatal(err)
	}
	if !restarted.Cached {
		t.Fatal("restarted daemon re-planned instead of serving the disk tier")
	}
	if diff := conformance.DiffResults(first.Result.Result(), restarted.Result.Result()); diff != "" {
		t.Fatalf("restart result not bit-identical: %s", diff)
	}
	fromDrain, err := d2.Client.Plan(ctx, graphB, optsB)
	if err != nil {
		t.Fatal(err)
	}
	if !fromDrain.Cached {
		t.Fatal("the drained-to-completion plan was not persisted — the drain must have dropped it")
	}
	stats, err := d2.Client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiskCacheHits < 2 || stats.PlansExecuted != 0 {
		t.Fatalf("restart stats %+v: want >=2 disk hits and 0 plans executed", stats)
	}
}

// TestDaemonHealthzReportsDraining pins the load-balancer signal: healthz
// flips to 503 once the daemon begins draining.
func TestDaemonHealthzReportsDraining(t *testing.T) {
	d := bootDaemonHandle(t, []string{"-addr", "127.0.0.1:0", "-mcm", "dev4"})
	ctx := context.Background()
	if err := d.Client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	d.Signal()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := d.Client.Health(ctx)
		var apiErr *mcmpart.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining (last: %v)", err)
		}
		// An idle daemon drains fast; the listener may already be gone.
		if err != nil && apiErr == nil {
			break // transport error: the daemon has moved past draining to down
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDaemonShutdownDeliversRequestInFlight pins drain step 4 (DESIGN.md
// §10): a synchronous request still being received when the signal arrives
// gets its whole response, and run returns only after it has. Serve returns
// as soon as Shutdown closes the listener, so run must wait for Shutdown
// itself, or the process exits under the handler.
func TestDaemonShutdownDeliversRequestInFlight(t *testing.T) {
	d := bootDaemonHandle(t, []string{"-addr", "127.0.0.1:0", "-mcm", "dev4"})
	body := `{"graph":{"name":"g","nodes":[{"id":0,"op":4,"flops":10,"output_bytes":8},{"id":1,"op":7}],` +
		`"edges":[{"from":0,"to":1,"bytes":8}]},"options":{"method":"random","sample_budget":4,"seed":1}}`
	half := len(body) / 2
	conn, err := net.Dial("tcp", d.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /v1/plan HTTP/1.1\r\nHost: mcmpartd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	d.Signal()
	select {
	case code := <-d.done:
		d.done <- code
		t.Fatalf("run returned %d while a request was still being received", code)
	case <-time.After(500 * time.Millisecond):
	}
	if _, err := io.WriteString(conn, body[half:]); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to the request in flight: %v", err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("response body cut off: %v", err)
	}
	resp.Body.Close()
	// Admission stopped at the signal, so the late plan is refused — whole.
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("request in flight at shutdown: status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code := d.Wait(t); code != 0 {
		t.Fatalf("daemon exited with code %d", code)
	}
}
