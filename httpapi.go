package mcmpart

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"

	"mcmpart/internal/graph"
	"mcmpart/internal/jsonscan"
	"mcmpart/internal/telemetry"
)

// The HTTP JSON API served by cmd/mcmpartd (and by anything embedding
// NewHTTPHandler):
//
//	POST /v1/plan      {"graph": …, "options": …}  → PlanResponse (synchronous, cache-aware)
//	POST /v1/jobs      {"graph": …, "options": …}  → JobStatus (202; async)
//	GET  /v1/jobs/{id}                             → JobResponse (status + result when terminal)
//	DELETE /v1/jobs/{id}                           → JobStatus (cancels)
//	GET  /v1/policies                              → PoliciesResponse
//	GET  /v1/stats                                 → ServiceStats
//	GET  /metrics                                  → Prometheus text exposition (DESIGN.md §14)
//	GET  /healthz                                  → {"ok": true}
//
// Every request carries a request ID: the caller's X-Request-ID header
// when present, a generated one otherwise. The ID is echoed on the
// response header, stamped into the admitted job's status
// (JobStatus.RequestID), and attached to the structured request log line.
//
// Errors are {"error": "..."} with a meaningful status code: 400 for
// malformed requests, 404 for unknown jobs, 409 when a method needs a
// policy none is installed for (ErrPolicyRequired), 413 for a body over
// maxRequestBytes, 422 when the search found no valid partition
// (ErrNoPlan), 429 when admission sheds load (ErrBusy), 500 when the plan
// panicked (ErrPlanPanic), 503 when the service is closed or draining.
// 429 and 503 carry a Retry-After header — both are transient by contract
// (a draining daemon is typically being replaced), so clients with retry
// enabled honor it and try again. 422 and 500 are not retried: a plan is a
// pure function of its key, so the same request fails the same way.

// PlanOptionsWire is the JSON form of PlanOptions (Progress is not
// serializable and has a polling equivalent in JobStatus).
type PlanOptionsWire struct {
	Method           Method `json:"method,omitempty"`
	SampleBudget     int    `json:"sample_budget,omitempty"`
	Seed             int64  `json:"seed,omitempty"`
	UseSimulator     bool   `json:"use_simulator,omitempty"`
	SeedFromAnalytic bool   `json:"seed_from_analytic,omitempty"`
}

// Options converts the wire form to PlanOptions.
func (w PlanOptionsWire) Options() PlanOptions {
	return PlanOptions{
		Method:           w.Method,
		SampleBudget:     w.SampleBudget,
		Seed:             w.Seed,
		UseSimulator:     w.UseSimulator,
		SeedFromAnalytic: w.SeedFromAnalytic,
	}
}

// ResultWire is the JSON form of Result: the same fields, in the same
// order, with JSON names.
type ResultWire struct {
	Partition   Partition      `json:"partition"`
	Throughput  float64        `json:"throughput"`
	Improvement float64        `json:"improvement"`
	Samples     int            `json:"samples"`
	History     []float64      `json:"history,omitempty"`
	FailCounts  map[string]int `json:"fail_counts,omitempty"`
}

// ResultWire and Result have the same fields in the same order, so the two
// directions are pointer conversions (nil stays nil); like any wire form
// they share the slices and the map with what they were converted from.
func resultToWire(r *Result) *ResultWire { return (*ResultWire)(r) }

// Result converts the wire form back to a Result.
func (w *ResultWire) Result() *Result { return (*Result)(w) }

// PlanRequestWire is the body of POST /v1/plan and POST /v1/jobs.
type PlanRequestWire struct {
	// Graph uses the graph's native JSON encoding
	// ({"name", "nodes", "edges"}, see Graph.MarshalJSON).
	Graph   *Graph          `json:"graph"`
	Options PlanOptionsWire `json:"options"`
}

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	Result *ResultWire `json:"result"`
	// Cached reports that the plan was served from the plan cache.
	Cached bool `json:"cached"`
	// Coalesced reports that the plan shared another request's in-flight
	// computation (single-flight) instead of planning itself.
	Coalesced bool `json:"coalesced,omitempty"`
	// GraphFingerprint is the canonical fingerprint the cache keyed on.
	GraphFingerprint string `json:"graph_fingerprint"`
	// Error carries ctx-style partial failures (timeout with best-so-far).
	Error string `json:"error,omitempty"`
}

// JobResponse is the body of GET /v1/jobs/{id}: the status snapshot plus
// the result once the job is terminal.
type JobResponse struct {
	JobStatus
	Result *ResultWire `json:"result,omitempty"`
}

// PoliciesResponse is the body of GET /v1/policies.
type PoliciesResponse struct {
	Package            string       `json:"package"`
	PackageFingerprint string       `json:"package_fingerprint"`
	PolicyInstalled    bool         `json:"policy_installed"`
	PolicyFingerprint  string       `json:"policy_fingerprint,omitempty"`
	Policies           []PolicyInfo `json:"policies"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Help strings for the per-route HTTP metrics; the registry keys help on
// the family, so every registration site must agree.
const (
	httpRequestsHelp = "HTTP requests served, by route pattern and status code."
	httpLatencyHelp  = "HTTP request latency in seconds, by route pattern."
)

// httpRoutes enumerates the served patterns so their latency histograms
// exist (at zero) from the first scrape instead of materializing on first
// hit. Request counters carry a status-code label and appear on first use.
var httpRoutes = []string{
	"POST /v1/plan",
	"POST /v1/jobs",
	"GET /v1/jobs/{id}",
	"DELETE /v1/jobs/{id}",
	"GET /v1/policies",
	"GET /v1/stats",
	"GET /metrics",
	"GET /healthz",
}

// statusWriter captures the response code for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// NewHTTPHandler exposes a Service over the HTTP JSON API (see the comment
// at the top of this file for the routes). cmd/mcmpartd serves exactly this
// handler; embedding applications can mount it on their own mux. Every
// request is measured into the service's telemetry registry
// (mcmpart_http_requests_total, mcmpart_http_request_seconds) and logged
// through ServiceOptions.Logger with its request ID.
func NewHTTPHandler(svc *Service) http.Handler {
	reg := svc.Metrics()
	for _, route := range httpRoutes {
		reg.Histogram("mcmpart_http_request_seconds", httpLatencyHelp, telemetry.DefBuckets,
			telemetry.Label{Name: "route", Value: route})
	}
	var ridSeq atomic.Uint64
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", telemetry.Handler(reg))
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		job, g, ok := submitPlanRequest(svc, w, r)
		if !ok {
			return
		}
		res, err := awaitJob(r.Context(), job)
		if err != nil && res == nil {
			writeServiceError(w, err)
			return
		}
		status := job.Status()
		resp := PlanResponse{
			Result:           resultToWire(res),
			Cached:           status.Cached,
			Coalesced:        status.Coalesced,
			GraphFingerprint: g.Fingerprint(),
		}
		if err != nil {
			resp.Error = err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if job, _, ok := submitPlanRequest(svc, w, r); ok {
			writeJSON(w, http.StatusAccepted, job.Status())
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := svc.Job(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
			return
		}
		resp := JobResponse{JobStatus: job.Status()}
		if res, _ := job.Result(); res != nil {
			resp.Result = resultToWire(res)
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := svc.Job(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
			return
		}
		job.Cancel()
		writeJSON(w, http.StatusOK, job.Status())
	})

	mux.HandleFunc("GET /v1/policies", func(w http.ResponseWriter, r *http.Request) {
		pkg := svc.Package()
		writeJSON(w, http.StatusOK, PoliciesResponse{
			Package:            pkg.Name,
			PackageFingerprint: svc.pkgFP,
			PolicyInstalled:    svc.Planner().HasPolicy(),
			PolicyFingerprint:  svc.Planner().PolicyFingerprint(),
			Policies:           svc.Policies(),
		})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// A draining service reports unhealthy so load balancers stop
		// routing to it, while the still-open routes (job status, stats)
		// keep serving the requests it already owns.
		if svc.draining() {
			w.Header().Set("Retry-After", retryAfterValue)
			writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ok": false, "draining": true})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := svc.now()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = "req-" + strconv.FormatUint(ridSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(WithRequestID(r.Context(), rid))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(sw, r)
		// ServeMux stamps the matched pattern onto the request it was
		// handed, so the route label is exact — no path cardinality.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		elapsed := svc.now().Sub(start)
		reg.Counter("mcmpart_http_requests_total", httpRequestsHelp,
			telemetry.Label{Name: "route", Value: route},
			telemetry.Label{Name: "code", Value: strconv.Itoa(sw.code)}).Inc()
		reg.Histogram("mcmpart_http_request_seconds", httpLatencyHelp, telemetry.DefBuckets,
			telemetry.Label{Name: "route", Value: route}).Observe(elapsed.Seconds())
		svc.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", rid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", sw.code),
			slog.Duration("duration", elapsed),
		)
	})
}

// maxRequestBytes bounds a request body. A 100k-node graph is about 17 MB
// on the wire; nothing this daemon plans is near 64 MiB, and a body is held
// whole while it is decoded, so the bound is what one request can make the
// process allocate before admission control has seen it.
const maxRequestBytes = 64 << 20

// submitPlanRequest is the shared front half of the plan and jobs
// endpoints: it reads the body, decodes it (the graph arrives validated;
// option validation happens in Submit) and submits it. On failure the error
// response is already written and ok is false.
func submitPlanRequest(svc *Service, w http.ResponseWriter, r *http.Request) (job *Job, g *Graph, ok bool) {
	body, err := readRequestBody(w, r)
	if err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, ErrorResponse{Error: "reading request: " + err.Error()})
		return nil, nil, false
	}
	req, err := decodePlanRequest(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "decoding request: " + err.Error()})
		return nil, nil, false
	}
	if req.Graph == nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "request has no graph"})
		return nil, nil, false
	}
	job, err = svc.Submit(r.Context(), PlanRequest{Graph: req.Graph, Options: req.Options.Options()})
	if err != nil {
		writeServiceError(w, err)
		return nil, nil, false
	}
	return job, req.Graph, true
}

// readRequestBody reads the body once, into a buffer of its declared length
// when it declares one, and refuses (*http.MaxBytesError, a 413) more than
// maxRequestBytes — by the header alone when that already says so, so that a
// lying Content-Length allocates nothing.
func readRequestBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxRequestBytes {
		return nil, &http.MaxBytesError{Limit: maxRequestBytes}
	}
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if r.ContentLength < 0 { // chunked
		return io.ReadAll(body)
	}
	buf := make([]byte, r.ContentLength)
	_, err := io.ReadFull(body, buf)
	return buf, err
}

// The members of a plan request, indexed by the constants beside them.
var requestFields = [...]string{"graph", "options"}

const (
	requestGraph = iota
	requestOptions
)

// decodePlanRequest is the wire grammar of a plan request (DESIGN.md §8):
// one pass over body with the scanner the graph decoder is written on.
// "graph" is decoded where it stands (of several, the last stands and every
// one must be valid; null is no graph); "options" is delimited and given to
// encoding/json — a handful of bytes — so that Method's text form and every
// option error are its own. Any other member is an error, as is anything
// after the object; a top-level null is an empty request. Nothing of body is
// retained.
func decodePlanRequest(body []byte) (req PlanRequestWire, err error) {
	sc := jsonscan.New(body)
	if isNull, err := sc.Null(); isNull || err != nil {
		if err == nil {
			err = sc.End()
		}
		return req, err
	}
	if err := sc.Open('{', "a request object"); err != nil {
		return req, err
	}
	for first := true; ; first = false {
		key, ok, err := sc.Member(first)
		if err != nil {
			return req, err
		}
		if !ok {
			return req, sc.End()
		}
		switch jsonscan.Field(key, requestFields[:]) {
		case requestGraph:
			req.Graph, err = graph.DecodeJSON(sc)
		case requestOptions:
			var raw []byte
			if raw, err = sc.Raw(); err == nil {
				dec := json.NewDecoder(bytes.NewReader(raw))
				dec.DisallowUnknownFields()
				err = dec.Decode(&req.Options)
			}
		default:
			err = fmt.Errorf("%w: unknown field %q", ErrInvalidRequest, key)
		}
		if err != nil {
			return req, err
		}
	}
}

// retryAfterValue is the Retry-After advertised on 429 and 503: long
// enough for a queue to drain a job or a replacement daemon to bind the
// port, short enough that a retrying client converges quickly.
const retryAfterValue = "1"

// writeServiceError maps service errors to HTTP status codes. The mapping
// is bidirectional: Client maps these codes back to the same sentinels, so
// errors.Is works identically in-process and across the wire (pinned by the
// table-driven tests in client_errors_test.go). The two transient codes —
// 429 (queue full) and 503 (draining/closed) — carry a Retry-After header
// that Client surfaces as APIError.RetryAfter and the retry loop honors.
func writeServiceError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrBusy):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfterValue)
	case errors.Is(err, ErrServiceClosed):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterValue)
	case errors.Is(err, ErrPolicyRequired):
		// A servable configuration issue, not a malformed request.
		code = http.StatusConflict
	case errors.Is(err, ErrPlanPanic):
		// The server's fault, not the caller's.
		code = http.StatusInternalServerError
	case errors.Is(err, ErrNoPlan):
		// A well-formed request the search could not satisfy.
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrInvalidRequest):
		// Explicit, though it matches the default: the sentinel is part of
		// the wire contract and must stay 400 even if the default moves.
		code = http.StatusBadRequest
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
