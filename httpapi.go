package mcmpart

import (
	"bytes"
	"crypto/sha256"
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
// Errors are {"error": "..."} with a meaningful status code: 404 for an
// unknown job, 413 for a body over maxRequestBytes, 400 for any other
// malformed request, and for a service sentinel the status statusTable
// gives it — with a Retry-After header on the transient ones.

// statusRow ties one service sentinel to one HTTP status. (The field names
// are exported for the external test package, which reads the table through
// export_test.go.)
type statusRow struct {
	Err    error
	Status int
	// Transient marks a state of the daemon rather than a property of the
	// request: the response carries Retry-After, and a Client with retries
	// enabled honors it and tries again. Every other row is final — a plan
	// is a pure function of its key, so the same request fails the same way.
	Transient bool
}

// statusTable is the error contract of the wire, written once and read by
// both ends: writeServiceError sends the first row its error is (status,
// and Retry-After when transient), APIError.Is maps a status back to its
// row's sentinel, and the Client's retry loop retries the transient rows —
// so errors.Is answers the same in-process and through a daemon. A status
// may appear once; a sentinel may own a second status the handler sends
// without going through a Service error (413, a body over maxRequestBytes).
var statusTable = []statusRow{
	{ErrBusy, http.StatusTooManyRequests, true},             // the queue is full
	{ErrServiceClosed, http.StatusServiceUnavailable, true}, // closed or draining; typically being replaced
	{ErrPolicyRequired, http.StatusConflict, false},         // a servable configuration issue, not a malformed request
	{ErrPlanPanic, http.StatusInternalServerError, false},   // the server's fault, not the caller's
	{ErrNoPlan, http.StatusUnprocessableEntity, false},      // a well-formed request the search could not satisfy
	{ErrInvalidRequest, http.StatusBadRequest, false},
	{ErrInvalidRequest, http.StatusRequestEntityTooLarge, false},
}

// PlanOptionsWire is the JSON form of PlanOptions: the same type, whose
// tags name the wire fields (Progress is not serializable and has a polling
// equivalent in JobStatus), so the two directions are conversions.
type PlanOptionsWire PlanOptions

// Options converts the wire form to PlanOptions.
func (w PlanOptionsWire) Options() PlanOptions { return PlanOptions(w) }

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
	// Its value is fixed within a cache-key version (v=3| today) and
	// changes with it.
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
	var ridSeq atomic.Uint64
	mux := http.NewServeMux()
	// handle serves one pattern and creates its latency histogram, so every
	// served route is on the first scrape (at zero) instead of materializing
	// on its first hit. Request counters carry a status-code label and
	// appear on first use.
	handle := func(pattern string, h http.HandlerFunc) {
		reg.Histogram("mcmpart_http_request_seconds", httpLatencyHelp, telemetry.DefBuckets,
			telemetry.Label{Name: "route", Value: pattern})
		mux.Handle(pattern, h)
	}
	handle("GET /metrics", telemetry.Handler(reg).ServeHTTP)
	handle("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		job, graphFP, ok := submitPlanRequest(svc, w, r)
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
			GraphFingerprint: graphFP,
		}
		if err != nil {
			resp.Error = err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	})

	handle("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if job, _, ok := submitPlanRequest(svc, w, r); ok {
			writeJSON(w, http.StatusAccepted, job.Status())
		}
	})

	handle("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookupJob(svc, w, r)
		if !ok {
			return
		}
		resp := JobResponse{JobStatus: job.Status()}
		if res, _ := job.Result(); res != nil {
			resp.Result = resultToWire(res)
		}
		writeJSON(w, http.StatusOK, resp)
	})

	handle("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := lookupJob(svc, w, r); ok {
			job.Cancel()
			writeJSON(w, http.StatusOK, job.Status())
		}
	})

	handle("GET /v1/policies", func(w http.ResponseWriter, r *http.Request) {
		installed := svc.planner.snapshotPolicy()
		writeJSON(w, http.StatusOK, PoliciesResponse{
			Package:            svc.Package().Name,
			PackageFingerprint: svc.pkgFP,
			PolicyInstalled:    installed.policy != nil,
			PolicyFingerprint:  installed.fp,
			Policies:           svc.policies(installed),
		})
	})

	handle("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})

	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
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

// lookupJob resolves the {id} of a job route; for an unknown job the 404 is
// already written and ok is false.
func lookupJob(svc *Service, w http.ResponseWriter, r *http.Request) (job *Job, ok bool) {
	id := r.PathValue("id")
	if job, ok = svc.Job(id); !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown job %q", id)})
	}
	return job, ok
}

// submitPlanRequest is the shared front half of the plan and jobs
// endpoints: it reads the body, and serves it from the request memo when
// the service has keyed these exact bytes before and their plan is cached
// (Service.submitKnown); otherwise it decodes and submits it — a request
// with no graph, like any other ill-formed one, is Submit's to refuse — and
// remembers what keying it produced once it is a job. graphFP is the
// fingerprint the cache keyed on. On failure the error response is already
// written and ok is false.
func submitPlanRequest(svc *Service, w http.ResponseWriter, r *http.Request) (job *Job, graphFP string, ok bool) {
	body, err := readRequestBody(w, r)
	if err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, ErrorResponse{Error: "reading request: " + err.Error()})
		return nil, "", false
	}
	digest := sha256.Sum256(body)
	if job, graphFP, ok := svc.submitKnown(r.Context(), digest); ok {
		return job, graphFP, true
	}
	req, err := decodePlanRequest(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "decoding request: " + err.Error()})
		return nil, "", false
	}
	job, keyed, err := svc.submit(r.Context(), PlanRequest{Graph: req.Graph, Options: req.Options.Options()})
	if err != nil {
		writeServiceError(w, err)
		return nil, "", false
	}
	svc.memo.put(digest, keyed)
	return job, keyed.graphFP, true
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

// writeServiceError answers with the status statusTable gives err (the
// first row it is), and with Retry-After when that row is transient. An
// error that is no sentinel — a graph Validate refused, an admission ctx
// that ended — is the request's own: 400.
func writeServiceError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	for _, row := range statusTable {
		if errors.Is(err, row.Err) {
			code = row.Status
			if row.Transient {
				w.Header().Set("Retry-After", retryAfterValue)
			}
			break
		}
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
