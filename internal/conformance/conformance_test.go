package conformance

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"mcmpart"
	"mcmpart/internal/costmodel"
	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
	"mcmpart/internal/randgraph"
)

func TestFailClass(t *testing.T) {
	cases := map[string]string{
		"":                                     "none",
		"unroutable transfer on ring topology": "routability",
		"illegal transfer: no ring route from chip 1 to chip 0 (edge 0 -> 1)": "routability",
		"out of memory on chip":           "memory",
		"partition: chip ID out of range": "structure",
		"empty graph":                     "other",
	}
	for reason, want := range cases {
		if got := FailClass(reason); got != want {
			t.Errorf("FailClass(%q) = %q, want %q", reason, got, want)
		}
	}
}

func TestSamplePartitionsDeterministicAndInRange(t *testing.T) {
	g := randgraph.Sample(1, 0)
	a := SamplePartitions(g, 4, rand.New(rand.NewSource(7)), 9)
	b := SamplePartitions(g, 4, rand.New(rand.NewSource(7)), 9)
	if len(a) != 9 {
		t.Fatalf("got %d partitions", len(a))
	}
	for i := range a {
		if len(a[i]) != g.NumNodes() {
			t.Fatalf("partition %d has %d entries for %d nodes", i, len(a[i]), g.NumNodes())
		}
		for v := range a[i] {
			if a[i][v] != b[i][v] {
				t.Fatal("same rng seed produced different partitions")
			}
			if a[i][v] < 0 || a[i][v] >= 4 {
				t.Fatalf("partition %d places node %d on chip %d", i, v, a[i][v])
			}
		}
	}
}

// TestLegalityAgreementCleanOnRealEnvironments runs the oracle on the real
// model/simulator pair across all presets and a batch of generated graphs;
// PR 2's contract says there must be no violations.
func TestLegalityAgreementCleanOnRealEnvironments(t *testing.T) {
	for _, preset := range []string{"dev4", "dev8bi", "het4", "mesh16"} {
		pkg, err := mcmpart.PackagePreset(preset)
		if err != nil {
			t.Fatal(err)
		}
		model := costmodel.New(pkg)
		sim := hwsim.New(pkg, hwsim.Options{Seed: 1})
		for gi := 0; gi < 6; gi++ {
			g := randgraph.Sample(3, gi)
			rng := rand.New(rand.NewSource(int64(gi)))
			for _, p := range SamplePartitions(g, pkg.Chips, rng, 6) {
				if vs := CheckLegalityAgreement("t", g, pkg, p, model, sim); len(vs) != 0 {
					t.Errorf("%s graph %d: %v", preset, gi, vs)
				}
			}
		}
	}
}

// TestBrokenLegalityOracleFails feeds the legality oracle a deliberately
// broken environment — a "model" that prices every partition as legal — and
// checks the oracle reports the disagreement. This is the harness's own
// regression: if a broken check slipped through silently, every sweep would
// be vacuously green.
func TestBrokenLegalityOracleFails(t *testing.T) {
	pkg := mcm.Dev4()
	sim := hwsim.New(pkg, hwsim.Options{Seed: 1})
	lyingModel := eval.Func(func(g *graph.Graph, p partition.Partition) eval.Verdict {
		return eval.Verdict{Throughput: 1, Valid: true} // never rejects anything
	})
	g := randgraph.Sample(1, 0)
	// A reversed partition is unroutable on the uni-directional ring: the
	// real simulator rejects it, the lying model does not.
	p := make(partition.Partition, g.NumNodes())
	lay, _ := g.Layout()
	for pos, v := range lay.Order {
		p[v] = 3 - 4*pos/len(lay.Order)
	}
	vs := CheckLegalityAgreement("broken", g, pkg, p, lyingModel, sim)
	if len(vs) == 0 {
		t.Fatal("oracle accepted a model that prices unroutable transfers as legal")
	}
	if vs[0].Oracle != "legality" {
		t.Fatalf("violation oracle = %q", vs[0].Oracle)
	}
	// Symmetric breakage: a simulator that never rejects.
	lyingSim := eval.Func(func(g *graph.Graph, p partition.Partition) eval.Verdict {
		return eval.Verdict{Throughput: 1, Valid: true}
	})
	if vs := CheckLegalityAgreement("broken", g, pkg, p, costmodel.New(pkg), lyingSim); len(vs) == 0 {
		t.Fatal("oracle accepted a simulator that prices unroutable transfers as legal")
	}
}

// TestBrokenPricingFailsMonotonicity demonstrates the pricing oracle
// catches a package whose per-hop term is negative (transfer time shrinking
// as routes lengthen).
func TestBrokenPricingFailsMonotonicity(t *testing.T) {
	for _, preset := range []string{"dev4", "dev8", "dev8bi", "het4", "mesh16", "edge36"} {
		pkg, err := mcmpart.PackagePreset(preset)
		if err != nil {
			t.Fatal(err)
		}
		if vs := CheckTransferMonotonicity("t", pkg); len(vs) != 0 {
			t.Errorf("%s: unexpected violations: %v", preset, vs)
		}
	}
	broken := mcm.Dev4()
	broken.LinkLatency = -1 // negative per-hop latency: pricing goes negative
	if vs := CheckTransferMonotonicity("broken", broken); len(vs) == 0 {
		t.Fatal("oracle accepted negative transfer pricing")
	}
}

// TestBrokenPlanFailsValidity demonstrates the plan oracle rejects a
// corrupted result: a partition with a backwards edge and a throughput of
// zero must both be flagged.
func TestBrokenPlanFailsValidity(t *testing.T) {
	pkg := mcmpart.Dev4()
	g := randgraph.Sample(1, 0)
	pl, err := mcmpart.NewPlanner(pkg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Plan(context.Background(), g, mcmpart.PlanOptions{Method: mcmpart.MethodGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckPlanResult("ok", g, pkg, res); len(vs) != 0 {
		t.Fatalf("clean greedy plan flagged: %v", vs)
	}
	corrupt := *res
	corrupt.Partition = res.Partition.Clone()
	for i := range corrupt.Partition {
		corrupt.Partition[i] = pkg.Chips - 1 - corrupt.Partition[i] // reverse chips
	}
	corrupt.Throughput = 0
	vs := CheckPlanResult("corrupt", g, pkg, &corrupt)
	if len(vs) < 2 {
		t.Fatalf("corrupted plan produced %d violations, want ValidateOn + throughput: %v", len(vs), vs)
	}
}

// TestDiffResultsDetectsSingleBitFlips pins the cache-identity comparator's
// bit-exactness.
func TestDiffResultsDetectsSingleBitFlips(t *testing.T) {
	base := &mcmpart.Result{
		Partition:   mcmpart.Partition{0, 1, 2},
		Throughput:  123.456,
		Improvement: 1.5,
		Samples:     10,
		History:     []float64{1, 1.2, 1.5},
		FailCounts:  map[string]int{"out of memory on chip": 3},
	}
	clone := func() *mcmpart.Result {
		c := *base
		c.Partition = base.Partition.Clone()
		c.History = append([]float64(nil), base.History...)
		c.FailCounts = map[string]int{"out of memory on chip": 3}
		return &c
	}
	if d := DiffResults(base, clone()); d != "" {
		t.Fatalf("identical results differ: %s", d)
	}
	mutations := map[string]func(*mcmpart.Result){
		"partition":  func(r *mcmpart.Result) { r.Partition[2] = 1 },
		"throughput": func(r *mcmpart.Result) { r.Throughput += 1e-13 },
		"history":    func(r *mcmpart.Result) { r.History[1] *= 1.0000000000000002 },
		"samples":    func(r *mcmpart.Result) { r.Samples++ },
		"failcounts": func(r *mcmpart.Result) { r.FailCounts["out of memory on chip"]++ },
	}
	for name, mutate := range mutations {
		c := clone()
		mutate(c)
		if DiffResults(base, c) == "" {
			t.Errorf("%s mutation not detected", name)
		}
	}
}

// TestSweepSmallCleanAndByteIdentical runs a reduced sweep twice and pins
// the two core acceptance properties: zero violations on the real stack,
// and byte-identical reports for the same seed.
func TestSweepSmallCleanAndByteIdentical(t *testing.T) {
	cfg := SweepConfig{
		Seed:            5,
		Presets:         []string{"dev4", "dev8bi"},
		GraphsPerPreset: 3,
		Methods:         []mcmpart.Method{mcmpart.MethodGreedy, mcmpart.MethodRandom},
		SampleBudget:    8,
	}
	r1, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vs := r1.Violations(); len(vs) != 0 {
		t.Fatalf("violations on the real stack:\n%v", vs)
	}
	if r1.PlanCases() != 2*3*2 {
		t.Fatalf("plan cases = %d, want 12", r1.PlanCases())
	}
	r2, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Format() != r2.Format() {
		t.Fatalf("same seed produced different reports:\n--- a\n%s\n--- b\n%s", r1.Format(), r2.Format())
	}
	if !strings.Contains(r1.Format(), "TOTAL: 12 plan cases") {
		t.Fatalf("unexpected report:\n%s", r1.Format())
	}
	// Different seed ⇒ the report must actually depend on the seed.
	cfg.Seed = 6
	r3, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Format() == r1.Format() {
		t.Fatal("reports for different seeds are identical; the sweep ignores its seed")
	}
}

// TestSweepCancellation checks ctx cancellation aborts between cases with
// the context's error.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, SweepConfig{Presets: []string{"dev4"}, GraphsPerPreset: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
