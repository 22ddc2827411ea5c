package mcmpart_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mcmpart"
	"mcmpart/internal/faultinject"
)

// onlySentinel checks that err is errors.Is-equal to want (nil: to none) and
// to no other sentinel of the status table.
func onlySentinel(t *testing.T, err, want error) {
	t.Helper()
	for _, row := range mcmpart.StatusTable {
		if match := errors.Is(err, row.Err); match != (row.Err == want) {
			t.Errorf("errors.Is(err, %q) = %t, want %t (err: %v)", row.Err, match, row.Err == want, err)
		}
	}
}

// sentinelNames labels TestEverySentinelRoundTrips' subtests and nothing
// else; a sentinel without a label runs under its message.
var sentinelNames = map[error]string{
	mcmpart.ErrServiceClosed:  "ErrServiceClosed",
	mcmpart.ErrBusy:           "ErrBusy",
	mcmpart.ErrPolicyRequired: "ErrPolicyRequired",
	mcmpart.ErrPlanPanic:      "ErrPlanPanic",
	mcmpart.ErrInvalidRequest: "ErrInvalidRequest",
	mcmpart.ErrNoPlan:         "ErrNoPlan",
}

// TestEverySentinelRoundTrips sends each row of the status table through a
// real Client — the sentinel's first row through the handler's own error
// mapping, wrapped the way the Service wraps it; a second row (413) as the
// bare status the handler sends for it on its own. It must arrive with the
// row's status, errors.Is-equal to the row's sentinel and to no other, and
// with a Retry-After exactly when the row is transient. The codes
// themselves are pinned by the literal expectations of
// TestClientErrorMappingTable and of the tests below.
func TestEverySentinelRoundTrips(t *testing.T) {
	statuses, sentinels := map[int]bool{}, map[error]bool{}
	for _, row := range mcmpart.StatusTable {
		if statuses[row.Status] {
			t.Errorf("status %d is in two rows: APIError.Is could not tell their sentinels apart", row.Status)
		}
		statuses[row.Status] = true
		first := !sentinels[row.Err]
		sentinels[row.Err] = true
		name := sentinelNames[row.Err]
		if name == "" {
			name = row.Err.Error()
		}
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if first {
					mcmpart.WriteServiceError(w, fmt.Errorf("%w: some detail", row.Err))
				} else {
					w.WriteHeader(row.Status)
				}
			}))
			defer srv.Close()
			cl := mcmpart.NewClient(srv.URL, srv.Client(), mcmpart.ClientOptions{})
			_, err := cl.Plan(context.Background(), smallGraph(t), mcmpart.PlanOptions{})
			var ae *mcmpart.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("error %T is not an *APIError: %v", err, err)
			}
			if ae.StatusCode != row.Status {
				t.Errorf("StatusCode = %d, want %d", ae.StatusCode, row.Status)
			}
			onlySentinel(t, err, row.Err)
			if first && (ae.RetryAfter > 0) != row.Transient {
				t.Errorf("Retry-After %v on a row with Transient = %t", ae.RetryAfter, row.Transient)
			}
		})
	}
}

// TestServerFaultsAreNotTheCallersMistake drives the two failures that are
// nobody's malformed request through a real Service, handler and retrying
// Client: a plan that panics answers 500 / ErrPlanPanic, a search that
// finds nothing answers 422 / ErrNoPlan, neither is ErrInvalidRequest, and
// neither is retried — a plan is a pure function of its key, so both repeat.
func TestServerFaultsAreNotTheCallersMistake(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	srv := httptest.NewServer(mcmpart.NewHTTPHandler(svc))
	defer srv.Close()
	retries := 0
	cl := mcmpart.NewClient(srv.URL, srv.Client(), mcmpart.ClientOptions{
		MaxRetries:  2,
		BaseBackoff: time.Millisecond,
		OnRetry:     func(int, time.Duration, error) { retries++ },
	})
	check := func(name string, err, want error, status int) {
		t.Helper()
		var ae *mcmpart.APIError
		if !errors.As(err, &ae) || ae.StatusCode != status {
			t.Fatalf("%s: err = %v, want *APIError with status %d", name, err, status)
		}
		onlySentinel(t, err, want)
		if retries != 0 {
			t.Fatalf("%s: retried %d times; the same key fails the same way", name, retries)
		}
	}

	faultinject.Enable(faultinject.NewSet(1, faultinject.Rule{
		Point: faultinject.PointPlanEvaluate,
		Fault: faultinject.Fault{Err: errors.New("poisoned request"), Panic: true},
		Every: 1,
	}))
	t.Cleanup(faultinject.Disable)
	_, err := cl.Plan(context.Background(), smallGraph(t), mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 5})
	faultinject.Disable()
	check("panicking plan", err, mcmpart.ErrPlanPanic, http.StatusInternalServerError)

	// One operator whose weights no Dev4 chip can hold: even the greedy
	// baseline fails the simulator's memory check, so the plan ends in ErrNoPlan.
	g := mcmpart.NewGraph("too-big")
	g.AddNode(mcmpart.Node{Name: "fc", Op: mcmpart.OpKind(4), FLOPs: 1e9, ParamBytes: 1 << 40, OutputBytes: 1 << 10})
	_, err = cl.Plan(context.Background(), g, mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 5, UseSimulator: true})
	check("exhausted search", err, mcmpart.ErrNoPlan, http.StatusUnprocessableEntity)
}

// TestClientErrorMappingTable pins the bidirectional error contract of the
// HTTP API: every status code the daemon emits round-trips through Client
// back to the matching service sentinel (or to a bare APIError for plain
// bad requests), including the malformed-error-body fallback.
func TestClientErrorMappingTable(t *testing.T) {
	cases := []struct {
		name     string
		status   int
		body     string
		sentinel error  // errors.Is(err, sentinel) must hold (nil: none may match)
		message  string // expected APIError.Message
	}{
		{
			name:     "400 bad request is ErrInvalidRequest",
			status:   http.StatusBadRequest,
			body:     `{"error":"mcmpart: invalid request: SampleBudget -4 is negative; use 0 for the default (200)"}`,
			sentinel: mcmpart.ErrInvalidRequest,
			message:  "mcmpart: invalid request: SampleBudget -4 is negative; use 0 for the default (200)",
		},
		{
			name:     "413 body over the daemon's bound is ErrInvalidRequest",
			status:   http.StatusRequestEntityTooLarge,
			body:     `{"error":"reading request: http: request body too large"}`,
			sentinel: mcmpart.ErrInvalidRequest,
			message:  "reading request: http: request body too large",
		},
		{
			name:     "409 conflict is ErrPolicyRequired",
			status:   http.StatusConflict,
			body:     `{"error":"mcmpart: a pre-trained policy is required: method \"zeroshot\" needs Pretrain, LoadPolicy, or an artifact for this package in the policy directory"}`,
			sentinel: mcmpart.ErrPolicyRequired,
			message:  `mcmpart: a pre-trained policy is required: method "zeroshot" needs Pretrain, LoadPolicy, or an artifact for this package in the policy directory`,
		},
		{
			name:     "429 too many requests is ErrBusy",
			status:   http.StatusTooManyRequests,
			body:     `{"error":"mcmpart: service queue is full"}`,
			sentinel: mcmpart.ErrBusy,
			message:  "mcmpart: service queue is full",
		},
		{
			name:     "503 unavailable is ErrServiceClosed",
			status:   http.StatusServiceUnavailable,
			body:     `{"error":"mcmpart: service is closed"}`,
			sentinel: mcmpart.ErrServiceClosed,
			message:  "mcmpart: service is closed",
		},
		{
			name:     "500 internal error is ErrPlanPanic",
			status:   http.StatusInternalServerError,
			body:     `{"error":"mcmpart: plan panicked: poisoned request"}`,
			sentinel: mcmpart.ErrPlanPanic,
			message:  "mcmpart: plan panicked: poisoned request",
		},
		{
			name:     "422 unprocessable is ErrNoPlan",
			status:   http.StatusUnprocessableEntity,
			body:     `{"error":"mcmpart: no valid partition found within 5 samples"}`,
			sentinel: mcmpart.ErrNoPlan,
			message:  "mcmpart: no valid partition found within 5 samples",
		},
		{
			name:    "malformed error body keeps the raw text",
			status:  http.StatusBadGateway,
			body:    "upstream exploded\n",
			message: "upstream exploded",
		},
		{
			name:     "empty error field falls back to raw body",
			status:   http.StatusBadRequest,
			body:     `{"error":""}`,
			sentinel: mcmpart.ErrInvalidRequest, // 400 maps by status, whatever the body
			message:  `{"error":""}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				_, _ = w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			cl := mcmpart.NewClient(srv.URL, srv.Client(), mcmpart.ClientOptions{})
			_, err := cl.Plan(context.Background(), smallGraph(t), mcmpart.PlanOptions{})
			if err == nil {
				t.Fatal("expected an error")
			}
			var ae *mcmpart.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("error %T is not an *APIError: %v", err, err)
			}
			if ae.StatusCode != tc.status {
				t.Fatalf("StatusCode = %d, want %d", ae.StatusCode, tc.status)
			}
			if ae.Message != tc.message {
				t.Fatalf("Message = %q, want %q", ae.Message, tc.message)
			}
			onlySentinel(t, err, tc.sentinel)
		})
	}
}

// TestClientSentinelsRoundTripRealDaemon checks the mapping against a real
// Service behind a real handler (not a stub): a zero-shot plan without a
// policy must come back as ErrPolicyRequired, a full queue as ErrBusy, and
// a closed service as ErrServiceClosed.
func TestClientSentinelsRoundTripRealDaemon(t *testing.T) {
	svc, err := mcmpart.NewService(mcmpart.Dev4(), mcmpart.ServiceOptions{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mcmpart.NewHTTPHandler(svc))
	defer srv.Close()
	defer svc.Close()
	cl := mcmpart.NewClient(srv.URL, srv.Client(), mcmpart.ClientOptions{})
	ctx := context.Background()
	g := smallGraph(t)

	if _, err := cl.Plan(ctx, g, mcmpart.PlanOptions{Method: mcmpart.MethodZeroShot}); !errors.Is(err, mcmpart.ErrPolicyRequired) {
		t.Fatalf("zero-shot without policy: err = %v, want ErrPolicyRequired", err)
	}

	// Saturate the single worker and the depth-1 queue with long jobs, then
	// the next submission must shed load as ErrBusy. Distinct seeds keep
	// the jobs out of each other's cache entries.
	long := func(seed int64) mcmpart.PlanOptions {
		return mcmpart.PlanOptions{Method: mcmpart.MethodSA, SampleBudget: 500000, Seed: seed}
	}
	j1, err := cl.SubmitJob(ctx, g, long(101))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := cl.SubmitJob(ctx, g, long(102))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.SubmitJob(ctx, g, long(103))
	if !errors.Is(err, mcmpart.ErrBusy) {
		t.Fatalf("third job on a full queue: err = %v, want ErrBusy", err)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		if _, err := cl.CancelJob(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	svc.Close()
	if _, err := cl.Plan(ctx, g, mcmpart.PlanOptions{}); !errors.Is(err, mcmpart.ErrServiceClosed) {
		t.Fatalf("plan after Close: err = %v, want ErrServiceClosed", err)
	}
}

// TestClientEscapesJobIDs: a job ID is one path segment. Pasted into the
// path unescaped, each of these addressed another route ("../stats" fetched
// /v1/stats and decoded it as a zero JobResponse), another job ("x?y=1" was
// job "x") or no URL at all ("%zz"); escaped, each reaches the job routes
// as itself, an unknown job. An ID no segment can carry is refused with
// ErrInvalidRequest before any request is sent.
func TestClientEscapesJobIDs(t *testing.T) {
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1})
	h := mcmpart.NewHTTPHandler(svc)
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	cl := mcmpart.NewClient(srv.URL, srv.Client(), mcmpart.ClientOptions{})
	ctx := context.Background()
	calls := map[string]func(id string) error{
		"JobStatus": func(id string) error { _, err := cl.JobStatus(ctx, id); return err },
		"CancelJob": func(id string) error { _, err := cl.CancelJob(ctx, id); return err },
	}
	for name, call := range calls {
		for _, id := range []string{"../stats", "a/b", "x?y=1", "job-1#frag", "%zz"} {
			err := call(id)
			var ae *mcmpart.APIError
			if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound || ae.Message != fmt.Sprintf("unknown job %q", id) {
				t.Errorf("%s(%q) = %v, want a 404 naming the job %q", name, id, err, id)
			}
		}
		for _, id := range []string{"", ".", ".."} {
			before := requests.Load()
			if err := call(id); !errors.Is(err, mcmpart.ErrInvalidRequest) || requests.Load() != before {
				t.Errorf("%s(%q) = %v after %d requests, want ErrInvalidRequest and none", name, id, err, requests.Load()-before)
			}
		}
	}
}

// TestInvalidRequestSentinel pins the ErrInvalidRequest contract end to
// end: every request-validation failure carries the sentinel in-process
// (Planner and Service alike), and over the wire it becomes a 400 that
// Client maps back to the same sentinel — so callers branch on
// errors.Is(err, ErrInvalidRequest) identically on both sides.
func TestInvalidRequestSentinel(t *testing.T) {
	ctx := context.Background()
	g := smallGraph(t)

	if _, err := mcmpart.NewPlanner(nil); !errors.Is(err, mcmpart.ErrInvalidRequest) {
		t.Fatalf("nil package: err = %v, want ErrInvalidRequest", err)
	}
	pl, err := mcmpart.NewPlanner(mcmpart.Dev4())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(ctx, nil, mcmpart.PlanOptions{}); !errors.Is(err, mcmpart.ErrInvalidRequest) {
		t.Fatalf("nil graph: err = %v, want ErrInvalidRequest", err)
	}
	if _, err := pl.Plan(ctx, g, mcmpart.PlanOptions{SampleBudget: -4}); !errors.Is(err, mcmpart.ErrInvalidRequest) {
		t.Fatalf("negative budget: err = %v, want ErrInvalidRequest", err)
	}
	if _, err := pl.Plan(ctx, g, mcmpart.PlanOptions{Method: "telepathy"}); !errors.Is(err, mcmpart.ErrInvalidRequest) {
		t.Fatalf("unknown method: err = %v, want ErrInvalidRequest", err)
	}
	if _, err := pl.Pretrain(ctx, nil, mcmpart.PretrainOptions{TotalSamples: -1}); !errors.Is(err, mcmpart.ErrInvalidRequest) {
		t.Fatalf("negative pretrain budget: err = %v, want ErrInvalidRequest", err)
	}

	svc, err := mcmpart.NewService(mcmpart.Dev4(), mcmpart.ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Submit(ctx, mcmpart.PlanRequest{}); !errors.Is(err, mcmpart.ErrInvalidRequest) {
		t.Fatalf("Submit nil graph: err = %v, want ErrInvalidRequest", err)
	}

	srv := httptest.NewServer(mcmpart.NewHTTPHandler(svc))
	defer srv.Close()
	cl := mcmpart.NewClient(srv.URL, srv.Client(), mcmpart.ClientOptions{})
	_, err = cl.Plan(ctx, g, mcmpart.PlanOptions{SampleBudget: -4})
	if !errors.Is(err, mcmpart.ErrInvalidRequest) {
		t.Fatalf("over HTTP: err = %v, want ErrInvalidRequest", err)
	}
	var ae *mcmpart.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("over HTTP: err = %v, want *APIError with status 400", err)
	}

	// The ErrNoPlan sentinel's text is the historical message prefix: the
	// budget-exhausted path appends " within %d samples" to it, keeping
	// the wire-visible string exactly what pre-sentinel clients logged.
	if got := mcmpart.ErrNoPlan.Error(); got != "mcmpart: no valid partition found" {
		t.Fatalf("ErrNoPlan text drifted: %q", got)
	}
}
