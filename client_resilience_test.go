package mcmpart_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mcmpart"
)

// retryClientOptions keeps retry-path tests fast.
func retryClientOptions(maxRetries int) mcmpart.ClientOptions {
	return mcmpart.ClientOptions{
		MaxRetries:  maxRetries,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        7,
	}
}

// TestClientRetriesTransientFailures pins the retry policy: 503s (a
// draining daemon) are retried until the daemon recovers, within the
// configured attempt budget.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(mcmpart.ErrorResponse{Error: "draining"})
			return
		}
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(map[string]bool{"ok": true})
	}))
	defer srv.Close()

	c := mcmpart.NewClient(srv.URL, nil, retryClientOptions(3))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("retrying client must outlast 2 transient failures: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + 1 success)", n)
	}
}

// TestClientRetryBudgetExhausted: when the failures outlast MaxRetries the
// final typed error surfaces, and the attempt count is exactly 1+MaxRetries.
func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(mcmpart.ErrorResponse{Error: "queue full"})
	}))
	defer srv.Close()

	c := mcmpart.NewClient(srv.URL, nil, retryClientOptions(2))
	err := c.Health(context.Background())
	if !errors.Is(err, mcmpart.ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", n)
	}
}

// TestClientDoesNotRetryFatalErrors: 400s are the caller's bug, not a
// transient condition — exactly one attempt.
func TestClientDoesNotRetryFatalErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(mcmpart.ErrorResponse{Error: "no graph"})
	}))
	defer srv.Close()

	c := mcmpart.NewClient(srv.URL, nil, retryClientOptions(5))
	var apiErr *mcmpart.APIError
	if err := c.Health(context.Background()); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want a 400 APIError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1 (400 must not be retried)", n)
	}
}

// TestClientDefaultHasNoRetries pins backward compatibility: NewClient
// surfaces the first failure immediately.
func TestClientDefaultHasNoRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(mcmpart.ErrorResponse{Error: "closed"})
	}))
	defer srv.Close()

	c := mcmpart.NewClient(srv.URL, nil, mcmpart.ClientOptions{})
	if err := c.Health(context.Background()); !errors.Is(err, mcmpart.ErrServiceClosed) {
		t.Fatalf("err = %v, want ErrServiceClosed", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1", n)
	}
}

// TestAPIErrorCarriesRetryAfter pins the parsed header on the typed error.
func TestAPIErrorCarriesRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(mcmpart.ErrorResponse{Error: "busy"})
	}))
	defer srv.Close()

	err := mcmpart.NewClient(srv.URL, nil, mcmpart.ClientOptions{}).Health(context.Background())
	var apiErr *mcmpart.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", apiErr.RetryAfter)
	}
}

// TestClientHonorsRetryAfter: a server Retry-After longer than the
// computed backoff stretches the wait — observable as elapsed time.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(mcmpart.ErrorResponse{Error: "draining"})
			return
		}
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(map[string]bool{"ok": true})
	}))
	defer srv.Close()

	c := mcmpart.NewClient(srv.URL, nil, retryClientOptions(1))
	start := time.Now()
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry waited %v; Retry-After: 1 demands ~1s", elapsed)
	}
}

// TestClientRetryRespectsContext: a cancelled context cuts the backoff
// sleep short and is never itself retried.
func TestClientRetryRespectsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(mcmpart.ErrorResponse{Error: "draining"})
	}))
	defer srv.Close()

	c := mcmpart.NewClient(srv.URL, nil, retryClientOptions(3))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Health(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("context expiry took %v to cut the backoff short", elapsed)
	}
}

// flakyJobServer serves a job-status endpoint from a scripted sequence of
// responses; "err" entries drop the request at the HTTP level.
func flakyJobServer(t *testing.T, script []string) *httptest.Server {
	t.Helper()
	var step atomic.Int32
	var srv *httptest.Server
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(step.Add(1)) - 1
		if i >= len(script) {
			i = len(script) - 1
		}
		switch script[i] {
		case "err":
			panic(http.ErrAbortHandler) // client sees a transport error
		case "running":
			_ = json.NewEncoder(w).Encode(mcmpart.JobResponse{JobStatus: mcmpart.JobStatus{ID: "job-1", State: mcmpart.JobRunning}})
		case "done":
			_ = json.NewEncoder(w).Encode(mcmpart.JobResponse{JobStatus: mcmpart.JobStatus{ID: "job-1", State: mcmpart.JobDone}})
		default:
			t.Fatalf("bad script entry %q", script[i])
		}
	}))
	return srv
}

// TestWaitJobToleratesTransientPollFailures pins the WaitJob fix: isolated
// poll failures inside the consecutive-error budget do not abort the wait,
// and the budget resets on success.
func TestWaitJobToleratesTransientPollFailures(t *testing.T) {
	srv := flakyJobServer(t, []string{"err", "err", "running", "err", "err", "running", "err", "done"})
	defer srv.Close()

	c := mcmpart.NewClient(srv.URL, nil, mcmpart.ClientOptions{PollErrorBudget: 3})
	resp, err := c.WaitJob(context.Background(), "job-1", time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob must ride out transient polls within budget: %v", err)
	}
	if resp.State != mcmpart.JobDone {
		t.Fatalf("state = %s, want done", resp.State)
	}
}

// TestWaitJobGivesUpAfterBudget: a dead daemon exhausts the consecutive
// budget and surfaces the underlying error.
func TestWaitJobGivesUpAfterBudget(t *testing.T) {
	srv := flakyJobServer(t, []string{"running", "err", "err", "err", "err"})
	defer srv.Close()

	c := mcmpart.NewClient(srv.URL, nil, mcmpart.ClientOptions{PollErrorBudget: 3})
	_, err := c.WaitJob(context.Background(), "job-1", time.Millisecond)
	if err == nil {
		t.Fatal("WaitJob must give up once consecutive failures exhaust the budget")
	}
}

// TestWaitJobFatalErrorAborts: a 404 is not transient — no budget spent.
func TestWaitJobFatalErrorAborts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(mcmpart.ErrorResponse{Error: fmt.Sprintf("unknown job %q", "nope")})
	}))
	defer srv.Close()

	c := mcmpart.NewClient(srv.URL, nil, mcmpart.ClientOptions{PollErrorBudget: 50})
	var apiErr *mcmpart.APIError
	if _, err := c.WaitJob(context.Background(), "nope", time.Millisecond); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want an immediate 404 APIError", err)
	}
}
