package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"mcmpart"
)

// TestBenchmarkJSONMatchesMetricLists pins BENCHMARK.json to the program:
// same workloads, same metric names and units, same run length.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []named `json:"workloads"`
		EndToEnd   []named `json:"end_to_end"`
		PerLayer   []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program sized for %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: %v in BENCHMARK.json, %v in the program", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSameSeedSameRun is the workload generator's contract on a 200-node
// scale-down of serve-warm: one seed gives byte-identical request bodies,
// the same quality, the same allocation per op (±0.5 %) and the same service
// counts; another seed gives other bytes.
func TestSameSeedSameRun(t *testing.T) {
	w, _ := findWorkload("serve-warm")
	sz := sizing{ops: 64, quantum: 16, clients: 1, segOps: 16, calibPerGap: 1, setupReps: 1, bigNodes: 200}
	once := func(seed int64) *result {
		t.Helper()
		r, err := run(context.Background(), config{workload: w.name, seed: seed}, w, sz, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed() != 0 {
			t.Fatalf("seed %d: %d ops failed: %v %v", seed, r.failed(), r.ph.failures, r.rechecks)
		}
		return r
	}
	a, b, other := once(7), once(7), once(8)
	if a.bodyHash != b.bodyHash {
		t.Errorf("request bodies differ between two runs of seed 7")
	}
	if a.bodyHash == other.bodyHash {
		t.Errorf("seeds 7 and 8 sent the same request bodies")
	}
	va, vb := a.endToEndValues(), b.endToEndValues()
	if math.Float64bits(va["quality"]) != math.Float64bits(vb["quality"]) {
		t.Errorf("quality %v vs %v", va["quality"], vb["quality"])
	}
	if d := math.Abs(va["alloc_mb_per_op"]-vb["alloc_mb_per_op"]) / va["alloc_mb_per_op"]; d > 0.005 && !raceEnabled {
		t.Errorf("alloc_mb_per_op %v vs %v (%.2f%% apart)", va["alloc_mb_per_op"], vb["alloc_mb_per_op"], 100*d)
	}
	for _, r := range []*result{a, b, other} {
		hits := r.ph.after.CacheHits - r.ph.before.CacheHits
		misses := r.ph.after.CacheMisses - r.ph.before.CacheMisses
		planned := r.ph.after.PlansExecuted - r.ph.before.PlansExecuted
		if hits != uint64(sz.ops) || misses != 0 || planned != 0 {
			t.Errorf("measured phase: %d hits, %d misses, %d plans; want %d, 0, 0", hits, misses, planned, sz.ops)
		}
	}
}

// TestRenamedAndPermutedKeepTheFingerprint: the renamed class of serve-warm
// is different bytes of the same length for the same cache key, and the
// permuted graphs of the defect probe share the key too — which is what
// makes their un-remapped hit a defect rather than a miss.
func TestRenamedAndPermutedKeepTheFingerprint(t *testing.T) {
	g := bigGraph(0, 200)
	opts := mcmpart.PlanOptionsWire{Method: mcmpart.MethodAnalytic}
	r1, r2 := renamed(g, 7, 3), renamed(g, 7, 3)
	if g.Fingerprint() != r1.Fingerprint() {
		t.Errorf("renaming changed the fingerprint")
	}
	b0, b1, b2 := planBody(g, opts), planBody(r1, opts), planBody(r2, opts)
	if len(b0) != len(b1) || bytes.Equal(b0, b1) {
		t.Errorf("renamed body: %d bytes vs %d, equal=%t; want same length, other bytes", len(b1), len(b0), bytes.Equal(b0, b1))
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("renaming is not a function of (seed, index)")
	}
	if bytes.Equal(b1, planBody(renamed(g, 8, 3), opts)) {
		t.Errorf("renaming ignores the seed")
	}
	if p := permuted(g, 1); p.Fingerprint() != g.Fingerprint() || p.Node(0).Name == g.Node(0).Name {
		t.Errorf("permuted graph: fingerprint kept=%t, node 0 %q vs %q", p.Fingerprint() == g.Fingerprint(), p.Node(0).Name, g.Node(0).Name)
	}
}

func TestScaledOpCountsAreWholeQuanta(t *testing.T) {
	for _, w := range workloads {
		if w.sizing.scaled(runSeconds).ops != w.sizing.ops {
			t.Errorf("%s: scaling to the frozen length changes the op count", w.name)
		}
		for _, s := range []int{1, 7, 20, 45, 60} {
			n := w.sizing.scaled(s).ops
			if n < w.sizing.quantum || n%w.sizing.quantum != 0 || n%(w.sizing.clients*w.sizing.segOps) != 0 {
				t.Errorf("%s at %d s: %d ops is not a whole number of quanta of %d and segments of %d",
					w.name, s, n, w.sizing.quantum, w.sizing.clients*w.sizing.segOps)
			}
		}
	}
}
