package mcmpart

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mcmpart/internal/randgraph"
)

// refDecodePlanRequest is how submitPlanRequest decoded a body before the
// single-pass decoder: encoding/json's Decoder over PlanRequestWire with
// unknown fields refused. The Decoder stops at the end of the first value;
// trailing reports whether anything but whitespace follows it, which is the
// one place decodePlanRequest is deliberately stricter.
func refDecodePlanRequest(body []byte) (req PlanRequestWire, trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, false, err
	}
	rest := body[dec.InputOffset():]
	return req, len(bytes.TrimLeft(rest, " \t\r\n")) > 0, nil
}

// checkDecodePlanRequest fails t unless decodePlanRequest and the reference
// agree on body: both refuse it, or both accept it with the same graph (or
// none) and the same options. A body with data after the request object
// must be refused whatever the reference says.
func checkDecodePlanRequest(t testing.TB, body []byte) (accepted bool) {
	t.Helper()
	got, gotErr := decodePlanRequest(body)
	want, trailing, wantErr := refDecodePlanRequest(body)
	if trailing {
		if gotErr == nil {
			t.Fatalf("data after the request object was accepted: %.200q", body)
		}
		return false
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decodePlanRequest: %v\nencoding/json: %v\nbody: %.200q", gotErr, wantErr, body)
	}
	if gotErr != nil {
		return false
	}
	if !reflect.DeepEqual(got.Options, want.Options) {
		t.Fatalf("options %+v, encoding/json %+v\nbody: %.200q", got.Options, want.Options, body)
	}
	if (got.Graph == nil) != (want.Graph == nil) {
		t.Fatalf("graph nil: %t, encoding/json: %t\nbody: %.200q", got.Graph == nil, want.Graph == nil, body)
	}
	if g, w := got.Graph, want.Graph; g != nil &&
		(g.Name() != w.Name() || !slices.Equal(g.Nodes(), w.Nodes()) || !slices.Equal(g.Edges(), w.Edges())) {
		t.Fatalf("graph %s differs from encoding/json's %s\nbody: %.200q", g, w, body)
	}
	return true
}

const tinyGraphJSON = `{"name":"g","nodes":[{"id":0,"name":"a","op":4,"flops":10,"output_bytes":8},{"id":1,"op":7}],"edges":[{"from":0,"to":1,"bytes":8}]}`

// planRequestCases seed FuzzDecodePlanRequest and, as seeds do, run in
// every go test: one body per rule of the request envelope.
var planRequestCases = []struct {
	name   string
	body   string
	accept bool
}{
	{"graph and options", `{"graph":` + tinyGraphJSON + `,"options":{"method":"random","sample_budget":50,"seed":7,"use_simulator":true,"seed_from_analytic":true}}`, true},
	{"options first, whitespace everywhere", " {\n \"options\" : { \"seed\" : 3 } ,\r\n\t\"graph\" : " + tinyGraphJSON + " } \n", true},
	{"graph alone", `{"graph":` + tinyGraphJSON + `}`, true},
	{"no graph", `{"options":{"seed":1}}`, true},
	{"empty object", `{}`, true},
	{"top-level null", `null`, true},
	{"null graph and options", `{"graph":null,"options":null}`, true},
	{"folded member names", `{"GRAPH":` + tinyGraphJSON + `,"Optionſ":{"SEED":9,"Method":"sa"}}`, true},
	{"escaped member names", `{"graph":` + tinyGraphJSON + `,"options":{"seed":4}}`, true},
	{"second graph stands", `{"graph":` + tinyGraphJSON + `,"graph":{"name":"h","nodes":[{"id":0,"op":4}]}}`, true},
	{"null after a graph removes it", `{"graph":` + tinyGraphJSON + `,"graph":null}`, true},
	{"first graph must be valid too", `{"graph":{"nodes":[]},"graph":` + tinyGraphJSON + `}`, false},
	{"options merge field by field", `{"options":{"seed":1,"method":"sa"},"options":{"sample_budget":5,"seed":2},"graph":` + tinyGraphJSON + `}`, true},
	{"unknown member inside the graph is ignored", `{"graph":{"version":2,"nodes":[{"id":0,"op":4,"color":"red"}]}}`, true},
	{"unknown top-level member", `{"graph":` + tinyGraphJSON + `,"priority":1}`, false},
	{"unknown top-level member, null", `{"graph":` + tinyGraphJSON + `,"priority":null}`, false},
	{"unknown option", `{"graph":` + tinyGraphJSON + `,"options":{"budget":5}}`, false},
	{"option of the wrong type", `{"graph":` + tinyGraphJSON + `,"options":{"seed":"7"}}`, false},
	{"options is an array", `{"graph":` + tinyGraphJSON + `,"options":[]}`, false},
	{"options is a number", `{"graph":` + tinyGraphJSON + `,"options":5}`, false},
	{"graph is a number", `{"graph":5}`, false},
	{"graph is invalid", `{"graph":{"nodes":[{"id":0,"op":99}]}}`, false},
	{"request is an array", `[` + tinyGraphJSON + `]`, false},
	{"request is a string", `"plan"`, false},
	{"truncated", `{"graph":` + tinyGraphJSON, false},
	{"truncated in options", `{"graph":` + tinyGraphJSON + `,"options":{"seed":`, false},
	{"broken syntax in options", `{"graph":` + tinyGraphJSON + `,"options":{"seed":1,}}`, false},
	{"empty body", ``, false},
	{"deep options", `{"options":` + strings.Repeat("[", 10_000) + strings.Repeat("]", 10_000) + `}`, false},
}

// trailingDataCases are the second deliberate tightening: encoding/json's
// Decoder read the first value of the body and never looked at the rest.
var trailingDataCases = []string{
	`{"graph":` + tinyGraphJSON + `}{"graph":` + tinyGraphJSON + `}`,
	`{"graph":` + tinyGraphJSON + `} x`,
	`{"graph":` + tinyGraphJSON + `}]`,
	`{"graph":` + tinyGraphJSON + `}` + "\n\x00",
	`null null`,
	`{},`,
}

// FuzzDecodePlanRequest fuzzes the HTTP decode path: whatever the bytes,
// decodePlanRequest returns what encoding/json's Decoder returned for them
// — accept or refuse, the graph, the options — except that data after the
// request object is refused.
func FuzzDecodePlanRequest(f *testing.F) {
	for _, tc := range planRequestCases {
		if len(tc.body) < 1<<10 { // the depth row would have the engine mutate 20 kB at a time
			f.Add([]byte(tc.body))
		}
	}
	for _, body := range trailingDataCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodePlanRequest(t, body)
	})
}

func TestDecodePlanRequestMatchesEncodingJSON(t *testing.T) {
	for _, tc := range planRequestCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkDecodePlanRequest(t, []byte(tc.body)); got != tc.accept {
				t.Errorf("accepted: %t, want %t", got, tc.accept)
			}
		})
	}
}

func TestDecodePlanRequestRejectsTrailingData(t *testing.T) {
	for _, body := range trailingDataCases {
		if _, trailing, err := refDecodePlanRequest([]byte(body)); err != nil || !trailing {
			t.Errorf("not a tightening (encoding/json: trailing %t, %v): %q", trailing, err, body)
		}
		if _, err := decodePlanRequest([]byte(body)); err == nil || !strings.Contains(err.Error(), "after the top-level value") {
			t.Errorf("error %v, want the trailing data named: %q", err, body)
		}
	}
}

// warmGraph is serve-warm's 10k-node layered graph.
func warmGraph() *Graph {
	return randgraph.Generate(randgraph.Config{Family: randgraph.FamilyLayered, Nodes: 10_000, Seed: 42})
}

// warmOptions are the options of serve-warm's request.
var warmOptions = PlanOptionsWire{Method: MethodAnalytic, SampleBudget: 1, Seed: 1}

// warmRequestBody is serve-warm's request: the 10k-node layered graph and a
// full set of options, 1.65 MB on the wire.
func warmRequestBody(tb testing.TB) []byte {
	tb.Helper()
	body, err := json.Marshal(PlanRequestWire{Graph: warmGraph(), Options: warmOptions})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodePlanRequestAllocs: what the handler allocates between having
// the body and having a validated graph and its options was 10.1k
// allocations — a string per node name — and is the growth steps of three
// arrays, the validator's derived record and the options' small Decoder.
func TestDecodePlanRequestAllocs(t *testing.T) {
	body := warmRequestBody(t)
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := decodePlanRequest(body); err != nil {
			t.Fatal(err)
		}
	}); allocs > 100 {
		t.Errorf("decodePlanRequest allocates %.0f times for the 10k-node request, ceiling 100", allocs)
	}
}

// BenchmarkDecodePlanRequest10k is what the handler pays to turn serve-warm's
// body into a validated graph and options (bench/'s httpapi.decode_ms probe
// goes through json.Unmarshal and so still pays two encoding/json scans of
// the body on top of this).
func BenchmarkDecodePlanRequest10k(b *testing.B) {
	body := warmRequestBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodePlanRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}

// warmedPoster returns a service that has already served warm through
// NewHTTPHandler, and a function that POSTs a body to /v1/plan there: a
// body for warm's graph and options is answered from the plan cache.
func warmedPoster(tb testing.TB, warm []byte) (*Service, func(body []byte)) {
	tb.Helper()
	svc, err := NewService(Edge36(), ServiceOptions{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	h := NewHTTPHandler(svc)
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("POST /v1/plan: %d %.200s", rec.Code, rec.Body)
		}
	}
	post(warm)
	return svc, post
}

// knownBodyPoster returns a function that POSTs body to /v1/plan on a
// service that has already served it once, so that every call is a
// byte-identical resubmission whose plan is cached.
func knownBodyPoster(tb testing.TB, body []byte) func() {
	tb.Helper()
	_, post := warmedPoster(tb, body)
	return func() { post(body) }
}

// TestPostKnownBodyBytes: a POST of serve-warm's 1.65 MB body that the
// request memo knows allocates what tagging, remapping and answering it
// take — 0.3 MB on average over 10 POSTs after the warm one. A buffer
// allocated per request for the body alone breaks the 1 MB ceiling; decoded,
// validated and fingerprinted again it was 7.2 MB. (The plan answered
// through encoding/json again is 0.6–0.7 MB: TestWireBytes and
// TestPlanResponseMatchesEncodingJSON hold the encoder instead.)
func TestPostKnownBodyBytes(t *testing.T) {
	post := knownBodyPoster(t, warmRequestBody(t))
	const posts = 10
	mean := float64(allocated(func() {
		for i := 0; i < posts; i++ {
			post()
		}
	})) / posts / (1 << 20)
	t.Logf("a known body's POST allocated %.2f MB on average", mean)
	if mean > 1 {
		t.Errorf("a known body's POST allocated %.2f MB on average, ceiling 1 MB: was its buffer not reused, or was it decoded again?", mean)
	}
}

// BenchmarkPostKnownBody10k is what a byte-identical resubmission of
// serve-warm's body costs through the handler once the service has keyed
// it: read into the spare buffer, tag, lookup, remap, copy and encode —
// no decode, no fingerprint and no reflect encoder
// (BenchmarkDecodePlanRequest10k is the decode it skips).
func BenchmarkPostKnownBody10k(b *testing.B) {
	body := warmRequestBody(b)
	post := knownBodyPoster(b, body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// renamedRequestBody is the request for g under fresh names of the same
// lengths, derived from tag: other bytes, the same structure and so the same
// plan-cache key — serve-warm's renamed class.
func renamedRequestBody(tb testing.TB, g *Graph, opts PlanOptionsWire, tag int) []byte {
	tb.Helper()
	name := func(old string, i int) string {
		fresh := fmt.Sprintf("%08x%08x", tag, i)
		for len(fresh) < len(old) {
			fresh += fresh
		}
		return fresh[len(fresh)-len(old):]
	}
	out := NewGraph(name(g.Name(), 0))
	for _, n := range g.Nodes() {
		n.Name = name(n.Name, n.ID+1)
		out.AddNode(n)
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(e.From, e.To, e.Bytes)
	}
	body, err := json.Marshal(PlanRequestWire{Graph: out, Options: opts})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkPostRenamedBody10k is what serve-warm's renamed class costs
// through the handler: each op posts the 10k-node graph under fresh names,
// so the request memo misses and the body is decoded, validated and
// fingerprinted before the plan cache hits and the response is encoded
// (BenchmarkPostKnownBody10k is the memo hit beside it).
func BenchmarkPostRenamedBody10k(b *testing.B) {
	g := warmGraph()
	svc, post := warmedPoster(b, warmRequestBody(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body := renamedRequestBody(b, g, warmOptions, i+1)
		b.StartTimer()
		post(body)
	}
	b.StopTimer()
	if st := svc.Stats(); st.PlansExecuted != 1 || st.RequestMemoHits != 0 {
		b.Fatalf("stats %+v: want every renamed body a plan-cache hit past a memo miss", st)
	}
}

// TestDecodedRequestDoesNotAliasBody: the job a request becomes outlives
// the handler's buffer. With the body zeroed after the decode, the graph
// still has its names and its fingerprint, and the plan served for it is
// the plan served for the graph the body was encoded from.
func TestDecodedRequestDoesNotAliasBody(t *testing.T) {
	src := BERT()
	opts := PlanOptionsWire{Method: MethodRandom, SampleBudget: 8, Seed: 5}
	body, err := json.Marshal(PlanRequestWire{Graph: src, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodePlanRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	clear(body)
	if req.Graph.Name() != src.Name() || !slices.Equal(req.Graph.Nodes(), src.Nodes()) {
		t.Fatal("the decoded graph changed when the request buffer was zeroed")
	}
	if req.Graph.Fingerprint() != src.Fingerprint() {
		t.Fatal("the decoded graph's fingerprint changed when the request buffer was zeroed")
	}
	ctx := context.Background()
	plan := func(g *Graph) *Result {
		svc, err := NewService(Edge36(), ServiceOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		res, err := svc.Plan(ctx, g, req.Options.Options())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, want := plan(req.Graph), plan(src)
	if !slices.Equal(got.Partition, want.Partition) || got.Throughput != want.Throughput {
		t.Fatal("the plan served for the decoded graph is not the plan for the graph it was encoded from")
	}
}

// spaces is an endless body of JSON whitespace: well-formed as far as it
// goes, so only its length can be held against it.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRequestBodyBound: a body over maxRequestBytes is a 413 with an
// ErrorResponse — from the Content-Length alone when that says so, before
// anything is allocated for it, and from the bytes themselves when the body
// is chunked — and a body within the bound that does not parse is still a
// 400.
func TestRequestBodyBound(t *testing.T) {
	svc, err := NewService(Dev4(), ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := NewHTTPHandler(svc)
	post := func(route string, body io.Reader, contentLength int64) (int, string) {
		req := httptest.NewRequest(http.MethodPost, route, body)
		req.ContentLength = contentLength
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("%s: status %d without an ErrorResponse: %q", route, rec.Code, rec.Body.String())
		}
		return rec.Code, er.Error
	}
	for _, route := range []string{"/v1/plan", "/v1/jobs"} {
		if code, msg := post(route, strings.NewReader(""), maxRequestBytes+1); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversize Content-Length over an empty body: %d %s, want 413", route, code, msg)
		}
	}
	if code, msg := post("/v1/plan", io.LimitReader(spaces{}, maxRequestBytes+1), -1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize chunked body: %d %s, want 413", code, msg)
	}
	if code, msg := post("/v1/plan", io.LimitReader(spaces{}, maxRequestBytes-1), maxRequestBytes-1); code != http.StatusBadRequest {
		t.Errorf("malformed body one byte under the bound: %d %s, want 400", code, msg)
	}
	if code, msg := post("/v1/plan", strings.NewReader(`{"graph":`), 64); code != http.StatusBadRequest {
		t.Errorf("body shorter than its Content-Length: %d %s, want 400", code, msg)
	}
}

// closeCounter is a request body that counts its Close calls.
type closeCounter struct {
	io.Reader
	closes int
}

func (c *closeCounter) Close() error { c.closes++; return nil }

// TestReadRequestBodyClosesAtEOF: a plan request's body, declared-length or
// chunked, is closed by the handler once read to its end, so net/http has
// nothing to drain after it; and over a real connection two POSTs share one
// keep-alive connection, which a body closed before its end would cost.
// Mutation caught: the Close dropped from readRequestBody.
func TestReadRequestBodyClosesAtEOF(t *testing.T) {
	_, h := memoTestService(t, ServiceOptions{Workers: 1})
	body := requestBody(t, CorpusGraphs(1)[3], memoOpts)
	for _, contentLength := range []int64{int64(len(body)), -1} {
		rb := &closeCounter{Reader: bytes.NewReader(body)}
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", rb)
		req.ContentLength = contentLength
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rb.closes != 1 {
			t.Errorf("Content-Length %d: status %d, body closed %d times; want 200, once", contentLength, rec.Code, rb.closes)
		}
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	var reused []bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) },
	})
	for i := 0; i < 2; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/plan", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: status %d", i, resp.StatusCode)
		}
	}
	if !slices.Equal(reused, []bool{false, true}) {
		t.Errorf("connections reused %v, want [false true]: the first POST's connection was not kept alive", reused)
	}
}
