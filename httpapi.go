package mcmpart

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"slices"
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

// statusWriter captures the response code for metrics and logs, and, on
// the plan route, what served the plan (Job.served) for the log line.
type statusWriter struct {
	http.ResponseWriter
	code             int
	tier             string
	deploymentReused bool
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
func NewHTTPHandler(svc *Service) http.Handler { return newHTTPHandler(svc, new(bodySpare)) }

// newHTTPHandler is NewHTTPHandler reading request bodies into spare's
// buffer.
func newHTTPHandler(svc *Service, spare *bodySpare) http.Handler {
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
		job, graphFP, ok := submitPlanRequest(svc, spare, w, r)
		if !ok {
			return
		}
		res, err := awaitJob(r.Context(), job)
		if sw, ok := w.(*statusWriter); ok {
			sw.tier, sw.deploymentReused = job.served()
		}
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
		writePlanResponse(w, &resp)
	})

	handle("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if job, _, ok := submitPlanRequest(svc, spare, w, r); ok {
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
		attrs := [...]slog.Attr{
			slog.String("request_id", rid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", sw.code),
			slog.Duration("duration", elapsed),
			// What served the plan, on the plan route only.
			slog.String("tier", sw.tier),
			slog.Bool("deployment_reused", sw.deploymentReused),
		}
		n := len(attrs)
		if sw.tier == "" {
			n -= 2
		}
		svc.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs[:n]...)
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
// written and ok is false. The body's buffer becomes the spare on return:
// the memo keeps a tag of it, and the decoded request a copy of what it
// needs (TestDecodedRequestDoesNotAliasBody).
func submitPlanRequest(svc *Service, spare *bodySpare, w http.ResponseWriter, r *http.Request) (job *Job, graphFP string, ok bool) {
	body, err := readRequestBody(spare, w, r)
	if err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, ErrorResponse{Error: "reading request: " + err.Error()})
		return nil, "", false
	}
	defer spare.release(body)
	tag := svc.requestTag(body)
	if job, graphFP, ok := svc.submitKnown(r.Context(), tag); ok {
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
	svc.memo.put(tag, keyed)
	return job, keyed.graphFP, true
}

// readRequestBody reads the body once, into a buffer of its declared length
// from spare when it declares one, and refuses (*http.MaxBytesError, a 413)
// more than maxRequestBytes — by the header alone when that already says
// so, so that a lying Content-Length allocates nothing. The caller hands
// the body back with spare.release once nothing reads it.
//
// A body read to its end is closed here. Left open, net/http drains it
// after the handler through io.Discard, whose 8 KB buffer comes from a
// per-P pool: a read of nothing that allocated the buffer whenever that
// P's pool was empty, so which requests allocated it was a matter of
// scheduling. Closed at EOF, the connection stays open for the next
// request (TestReadRequestBodyClosesAtEOF).
func readRequestBody(spare *bodySpare, w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxRequestBytes {
		return nil, &http.MaxBytesError{Limit: maxRequestBytes}
	}
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var buf []byte
	var err error
	if r.ContentLength < 0 { // chunked
		buf, err = io.ReadAll(body)
	} else {
		buf = spare.borrow(int(r.ContentLength))
		if _, err = io.ReadFull(body, buf); err != nil {
			spare.release(buf)
		}
	}
	if err != nil {
		return nil, err
	}
	_ = body.Close() // at EOF: nothing left to drain, nothing to report
	return buf, nil
}

// bodySpare is a handler's one spare request-body buffer: the buffer of the
// last body no request reads any more, kept for the next declared-length
// body that fits in it. A known body is read, tagged and let go, so without
// it every POST would allocate — and zero — a buffer as large as its body.
// It is one slot rather than a sync.Pool: the pool's per-P slots, emptied
// by every other GC, made which request allocated a buffer a matter of
// scheduling, and with it a run's allocation per request. What it keeps is
// one buffer of at most maxSpareBytes: a larger body's buffer goes when its
// request does, so one large POST does not pin its size for the handler's
// lifetime.
type bodySpare struct{ buf atomic.Pointer[[]byte] }

// maxSpareBytes is the largest buffer a bodySpare keeps: above the 1.65 MB
// of a 10k-node graph's request, below the 17 MB of a 100k-node one.
const maxSpareBytes = 4 << 20

// borrow returns an n-byte buffer: the spare when it is large enough, a new
// one otherwise. Its bytes are whatever the last request left.
func (s *bodySpare) borrow(n int) []byte {
	if p := s.buf.Swap(nil); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// release makes b the spare when it is at most maxSpareBytes; the caller
// keeps no reference to it.
func (s *bodySpare) release(b []byte) {
	if cap(b) <= maxSpareBytes {
		s.buf.Store(&b)
	}
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
	for first, next := true, 0; ; first = false {
		field, key, ok, err := sc.MemberOf(first, requestFields[:], next)
		if err != nil {
			return req, err
		}
		if !ok {
			return req, sc.End()
		}
		next = field + 1
		switch field {
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

// writeJSON answers code with v as encoding/json encodes it, indented one
// space per level. v is encoded before anything is written, so a value
// encoding/json refuses (a NaN or an infinity among its floats) is a 500
// with an ErrorResponse, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		_ = enc.Encode(ErrorResponse{Error: "encoding response: " + err.Error()})
	}
	writeBody(w, code, buf.Bytes())
}

// writeBody answers code with an encoded JSON body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// writePlanResponse answers a plan with appendPlanResponse's bytes; one it
// cannot encode (a non-finite float) goes to writeJSON, which refuses it
// with a 500.
func writePlanResponse(w http.ResponseWriter, resp *PlanResponse) {
	b, ok := appendPlanResponse(nil, resp)
	if !ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeBody(w, http.StatusOK, b)
}

// appendPlanResponse appends resp to b byte for byte as writeJSON encodes
// it — encoding/json's output indented one space per level, then a newline
// — with no reflection and no second indenting pass: the plan route's
// encoder. Strings go through json.Marshal, so their escaping is
// encoding/json's; fail_counts keys are sorted as encoding/json sorts map
// keys. ok is false when a float is NaN or infinite, which encoding/json
// refuses. TestWireBytes and TestPlanResponseMatchesEncodingJSON hold it to
// writeJSON's bytes.
func appendPlanResponse(b []byte, resp *PlanResponse) (_ []byte, ok bool) {
	res := resp.Result
	size := 128 + len(resp.GraphFingerprint) + len(resp.Error)
	if res != nil {
		size += 8*len(res.Partition) + 32*len(res.History) + 48*len(res.FailCounts)
	}
	b = slices.Grow(b, size)
	b = append(b, "{\n \"result\": "...)
	if res == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, "{\n  \"partition\": "...)
		switch {
		case res.Partition == nil:
			b = append(b, "null"...)
		case len(res.Partition) == 0:
			b = append(b, "[]"...)
		default:
			b = append(b, '[')
			for i, chip := range res.Partition {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n   "...)
				b = strconv.AppendInt(b, int64(chip), 10)
			}
			b = append(b, "\n  ]"...)
		}
		b = append(b, ",\n  \"throughput\": "...)
		if b, ok = appendJSONFloat(b, res.Throughput); !ok {
			return b, false
		}
		b = append(b, ",\n  \"improvement\": "...)
		if b, ok = appendJSONFloat(b, res.Improvement); !ok {
			return b, false
		}
		b = append(b, ",\n  \"samples\": "...)
		b = strconv.AppendInt(b, int64(res.Samples), 10)
		if len(res.History) > 0 {
			b = append(b, ",\n  \"history\": ["...)
			for i, v := range res.History {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n   "...)
				if b, ok = appendJSONFloat(b, v); !ok {
					return b, false
				}
			}
			b = append(b, "\n  ]"...)
		}
		if len(res.FailCounts) > 0 {
			b = append(b, ",\n  \"fail_counts\": {"...)
			for i, reason := range slices.Sorted(maps.Keys(res.FailCounts)) {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n   "...)
				b = appendJSONString(b, reason)
				b = append(b, ": "...)
				b = strconv.AppendInt(b, int64(res.FailCounts[reason]), 10)
			}
			b = append(b, "\n  }"...)
		}
		b = append(b, "\n }"...)
	}
	b = append(b, ",\n \"cached\": "...)
	b = strconv.AppendBool(b, resp.Cached)
	if resp.Coalesced {
		b = append(b, ",\n \"coalesced\": true"...)
	}
	b = append(b, ",\n \"graph_fingerprint\": "...)
	b = appendJSONString(b, resp.GraphFingerprint)
	if resp.Error != "" {
		b = append(b, ",\n \"error\": "...)
		b = appendJSONString(b, resp.Error)
	}
	return append(b, "\n}\n"...), true
}

// appendJSONString appends s as encoding/json writes a string.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always encodes
	return append(b, q...)
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form unless its magnitude is below 1e-6
// or at least 1e21, and then in 'e' form with a one-digit negative
// exponent unpadded (1e-7, not 1e-07). ok is false for NaN and ±Inf.
func appendJSONFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}
