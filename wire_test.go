package mcmpart

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
)

// bumpOption returns o with its i'th field moved off its current value, and
// false for Progress — the one field that is neither on the wire nor in the
// cache key. A field of a kind it cannot move fails the test: whoever adds
// one teaches this function, and with it both tests below, about it.
func bumpOption(t *testing.T, o PlanOptions, i int) (PlanOptions, bool) {
	t.Helper()
	switch f := reflect.ValueOf(&o).Elem().Field(i); f.Kind() {
	case reflect.Func:
		return o, false
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + int64(i) + 2)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	default:
		t.Fatalf("PlanOptions.%s has kind %s, which bumpOption cannot change", reflect.TypeOf(o).Field(i).Name, f.Kind())
	}
	return o, true
}

// TestOptionsWireRoundTrip sends PlanOptions with every serializable field
// set the way Client sends them and reads them back the way the handler
// does: all of them must arrive. SeedFromAnalytic used to be dropped on the
// client→wire leg, silently disabling analytic seeding for every remote
// caller; the walk over the struct keeps the next field from repeating that.
func TestOptionsWireRoundTrip(t *testing.T) {
	var want PlanOptions
	for i := 0; i < reflect.TypeOf(want).NumField(); i++ {
		want, _ = bumpOption(t, want, i)
	}
	sent := want
	sent.Progress = func(ProgressEvent) {} // stays behind: not serializable
	body, err := json.Marshal(PlanRequestWire{Options: PlanOptionsWire(sent)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodePlanRequest(body)
	if err != nil {
		t.Fatalf("%v\nbody: %s", err, body)
	}
	if got := req.Options.Options(); !reflect.DeepEqual(got, want) {
		t.Fatalf("options did not round-trip: got %+v, want %+v\nbody: %s", got, want, body)
	}
}

// TestCacheKeyCoversEveryOption moves each option in turn and requires the
// cache key to move with it: two requests that may plan differently under
// one key are a false cache hit. A PlanOptions field added without a place
// in planCacheKey fails here.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	base := PlanOptions{Method: MethodRandom, SampleBudget: 5, Seed: 1}
	key := planCacheKey("g", "p", "w", base)
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		bumped, ok := bumpOption(t, base, i)
		if ok && planCacheKey("g", "p", "w", bumped) == key {
			t.Errorf("planCacheKey ignores PlanOptions.%s: %+v and %+v share the key %s",
				reflect.TypeOf(base).Field(i).Name, base, bumped, key)
		}
	}
}

// TestWireBytes pins the bytes of a request as Client encodes it and of a
// plan response as writeJSON and the plan route's own encoder write it,
// every field set, against literals captured on 3dc5296 (before
// PlanOptionsWire became PlanOptions).
func TestWireBytes(t *testing.T) {
	g := NewGraph("g")
	a := g.AddNode(Node{Name: "a", Op: OpKind(4), FLOPs: 10, OutputBytes: 8})
	b := g.AddNode(Node{Name: "b", Op: OpKind(7)})
	if err := g.AddEdge(a, b, 8); err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(PlanRequestWire{Graph: g, Options: PlanOptionsWire{
		Method: MethodFineTune, SampleBudget: 321, Seed: 77, UseSimulator: true, SeedFromAnalytic: true,
		Progress: func(ProgressEvent) {},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const wantReq = `{"graph":{"name":"g","nodes":[{"id":0,"name":"a","op":4,"flops":10,"param_bytes":0,"output_bytes":8},{"id":1,"name":"b","op":7,"flops":0,"param_bytes":0,"output_bytes":0}],"edges":[{"from":0,"to":1,"bytes":8}]},"options":{"method":"finetune","sample_budget":321,"seed":77,"use_simulator":true,"seed_from_analytic":true}}`
	if string(req) != wantReq {
		t.Errorf("request bytes moved:\n got %s\nwant %s", req, wantReq)
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, 200, PlanResponse{
		Result: &ResultWire{Partition: Partition{0, 1}, Throughput: 1.5, Improvement: 1.25, Samples: 3,
			History: []float64{1, 1.25, 1.25}, FailCounts: map[string]int{"sram": 2}},
		Cached: true, Coalesced: true, GraphFingerprint: "fp", Error: "context deadline exceeded",
	})
	const wantResp = "{\n \"result\": {\n  \"partition\": [\n   0,\n   1\n  ],\n  \"throughput\": 1.5,\n  \"improvement\": 1.25,\n  \"samples\": 3,\n  \"history\": [\n   1,\n   1.25,\n   1.25\n  ],\n  \"fail_counts\": {\n   \"sram\": 2\n  }\n },\n \"cached\": true,\n \"coalesced\": true,\n \"graph_fingerprint\": \"fp\",\n \"error\": \"context deadline exceeded\"\n}\n"
	if got := rec.Body.String(); got != wantResp {
		t.Errorf("response bytes moved:\n got %q\nwant %q", got, wantResp)
	}

	// The plan route's own encoder writes the same bytes.
	rec = httptest.NewRecorder()
	writePlanResponse(rec, &PlanResponse{
		Result: &ResultWire{Partition: Partition{0, 1}, Throughput: 1.5, Improvement: 1.25, Samples: 3,
			History: []float64{1, 1.25, 1.25}, FailCounts: map[string]int{"sram": 2}},
		Cached: true, Coalesced: true, GraphFingerprint: "fp", Error: "context deadline exceeded",
	})
	if got := rec.Body.String(); got != wantResp {
		t.Errorf("the plan route's response bytes moved:\n got %q\nwant %q", got, wantResp)
	}
}
