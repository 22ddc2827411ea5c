package mcmpart

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The plan route's response encoder (appendPlanResponse) must write exactly
// the bytes writeJSON's encoding/json writes for the same PlanResponse, and
// a response it cannot encode must get writeJSON's 500.

// checkPlanResponse fails t unless writePlanResponse answers resp as
// writeJSON does: the same status and the same bytes.
func checkPlanResponse(t testing.TB, resp PlanResponse) {
	t.Helper()
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, resp)
	got := httptest.NewRecorder()
	writePlanResponse(got, &resp)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("plan response encoder: %d %q\nwriteJSON: %d %q\nresponse: %#v",
			got.Code, got.Body, want.Code, want.Body, resp)
	}
}

// encodingStrings are strings whose escaping encoding/json has opinions on:
// HTML-special characters (escaped by default), quotes, backslashes and
// control bytes, invalid UTF-8 (each bad byte becomes U+FFFD), and U+2028
// and U+2029 (escaped for JavaScript).
var encodingStrings = []string{
	"", "fp", "context deadline exceeded", "<script>&amp;</script>", `"quoted" \back\slash/`,
	"tab\tnewline\nnul\x00del\x7f", "\xff\xfe invalid", "trunc\xc3", "line\u2028para\u2029end",
	"é ü 中文 🙂", "sram", "hbm_capacity",
}

// encodingFloats are the values at encoding/json's format boundaries — it
// switches to exponent form below 1e-6 and from 1e21 in magnitude — plus
// the signed zero, subnormals and the extremes.
var encodingFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.5, 1.25, 0.1, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-9, 1e-10, 2e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 1e22, 1.5e300,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5e-310, -4.9e-324,
}

// randomFloat draws a listed boundary value, a value of random magnitude,
// or any finite bit pattern.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return encodingFloats[rng.Intn(len(encodingFloats))]
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randomPlanResponse draws a response with every field and every shape a
// field can take: a nil result; a nil, empty or filled partition with
// negative chips; absent, empty or filled history and fail_counts (the
// omitempty fields); and the strings above in the fingerprint, the error
// and the fail_counts keys.
func randomPlanResponse(rng *rand.Rand) PlanResponse {
	str := func() string { return encodingStrings[rng.Intn(len(encodingStrings))] }
	resp := PlanResponse{Cached: rng.Intn(2) == 0, Coalesced: rng.Intn(2) == 0, GraphFingerprint: str()}
	if rng.Intn(2) == 0 {
		resp.Error = str()
	}
	if rng.Intn(8) == 0 {
		return resp
	}
	res := &ResultWire{Throughput: randomFloat(rng), Improvement: randomFloat(rng), Samples: rng.Intn(2000) - 5}
	switch rng.Intn(4) {
	case 0: // nil
	case 1:
		res.Partition = Partition{}
	default:
		res.Partition = make(Partition, rng.Intn(40)+1)
		for i := range res.Partition {
			res.Partition[i] = rng.Intn(80) - 8
		}
		if rng.Intn(4) == 0 {
			res.Partition[0] = math.MinInt64
		}
	}
	switch rng.Intn(3) {
	case 0: // nil
	case 1:
		res.History = []float64{}
	default:
		res.History = make([]float64, rng.Intn(12)+1)
		for i := range res.History {
			res.History[i] = randomFloat(rng)
		}
	}
	switch rng.Intn(3) {
	case 0: // nil
	case 1:
		res.FailCounts = map[string]int{}
	default:
		res.FailCounts = make(map[string]int)
		for i := rng.Intn(6) + 1; i > 0; i-- {
			res.FailCounts[str()] = rng.Intn(1000) - 10
		}
	}
	resp.Result = res
	return resp
}

// TestPlanResponseMatchesEncodingJSON holds the plan route's encoder to
// writeJSON's bytes on random responses (randomPlanResponse), and on each
// boundary float in each float field; a NaN or an infinity there must get
// writeJSON's 500.
func TestPlanResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		checkPlanResponse(t, randomPlanResponse(rng))
	}
	for _, f := range append(encodingFloats, math.NaN(), math.Inf(1), math.Inf(-1)) {
		for field := 0; field < 3; field++ {
			res := &ResultWire{Partition: Partition{0, 1}, Throughput: 1, Improvement: 1, History: []float64{1, 1}}
			*[]*float64{&res.Throughput, &res.Improvement, &res.History[1]}[field] = f
			checkPlanResponse(t, PlanResponse{Result: res, GraphFingerprint: "fp"})
		}
	}
}

// TestWriteJSONRefusesWhatItCannotEncode: writeJSON encodes before it
// writes, so a value encoding/json refuses is a 500 with an ErrorResponse
// rather than the status asked for and an empty body.
func TestWriteJSONRefusesWhatItCannotEncode(t *testing.T) {
	for _, v := range []any{math.Inf(1), map[string]float64{"x": math.NaN()}} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusAccepted, v)
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Error == "" {
			t.Errorf("%v: %d %q, want 500 with an ErrorResponse", v, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%v: Content-Type %q, want application/json", v, ct)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, ErrorResponse{Error: "x"})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\n \"error\": \"x\"\n}\n" {
		t.Errorf("an encodable value: %d %q, want 202 with its encoding", rec.Code, rec.Body)
	}
}

// FuzzPlanResponse: whatever the strings, floats, chips and shapes, the plan
// route's encoder writes what writeJSON writes, status included.
func FuzzPlanResponse(f *testing.F) {
	f.Add("fp", "", "sram", 1.5, 1.25, 1e-7, []byte{0, 1, 255}, 3, 2, uint8(0x3f))
	f.Add("<&>", "\xff ", "", math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21, []byte{}, -1, -4, uint8(0x12))
	f.Add("", "x", "k", 0.0, math.Copysign(0, -1), math.Inf(1), []byte(nil), 0, 0, uint8(0x01))
	f.Fuzz(func(t *testing.T, fp, errMsg, reason string, throughput, improvement, h float64, chips []byte, samples, count int, shape uint8) {
		resp := PlanResponse{GraphFingerprint: fp, Error: errMsg, Cached: shape&1 != 0, Coalesced: shape&2 != 0}
		if shape&4 == 0 {
			res := &ResultWire{Throughput: throughput, Improvement: improvement, Samples: samples}
			if shape&8 == 0 {
				res.Partition = make(Partition, len(chips))
				for i, c := range chips {
					res.Partition[i] = int(int8(c))
				}
			}
			if shape&16 != 0 {
				res.History = []float64{h, improvement}
			}
			if shape&32 != 0 {
				res.FailCounts = map[string]int{reason: count, reason + "\x00": -count}
			}
			resp.Result = res
		}
		checkPlanResponse(t, resp)
	})
}
