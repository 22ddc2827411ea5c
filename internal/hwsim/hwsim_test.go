package hwsim

import (
	"math"
	"strings"
	"testing"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
	"mcmpart/internal/workload"
)

func pipelineGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("pipe")
	for i := 0; i < 8; i++ {
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e9, ParamBytes: 1 << 20, OutputBytes: 1 << 18})
		if i > 0 {
			g.MustAddEdge(i-1, i, 1<<18)
		}
	}
	return g
}

func TestEvaluateValidPartition(t *testing.T) {
	sim := New(mcm.Dev4(), Options{})
	g := pipelineGraph(t)
	p := partition.Partition{0, 0, 1, 1, 2, 2, 3, 3}
	res := sim.Evaluate(g, p)
	if !res.Valid {
		t.Fatalf("partition should be valid: %s", res.FailReason)
	}
	if res.Throughput <= 0 || res.Interval <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if 1/res.Interval != res.Throughput {
		t.Fatalf("throughput != 1/interval")
	}
}

func TestBalancedBeatsSkewed(t *testing.T) {
	sim := New(mcm.Dev4(), Options{})
	g := pipelineGraph(t)
	balanced := sim.Evaluate(g, partition.Partition{0, 0, 1, 1, 2, 2, 3, 3})
	skewed := sim.Evaluate(g, partition.Partition{0, 0, 0, 0, 0, 1, 2, 3})
	if !balanced.Valid || !skewed.Valid {
		t.Fatal("both partitions should be valid")
	}
	if balanced.Throughput <= skewed.Throughput {
		t.Fatalf("balanced %v should beat skewed %v", balanced.Throughput, skewed.Throughput)
	}
}

func TestDynamicConstraintOOM(t *testing.T) {
	pkg := mcm.Dev4() // 8 MiB SRAM per chip
	sim := New(pkg, Options{})
	g := graph.New("fat")
	// Two ops, 6 MiB of weights each: together they exceed one chip.
	for i := 0; i < 2; i++ {
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e9, ParamBytes: 6 << 20, OutputBytes: 1 << 10})
	}
	g.MustAddEdge(0, 1, 1<<10)
	oneChip := sim.Evaluate(g, partition.Partition{0, 0})
	if oneChip.Valid {
		t.Fatal("12 MiB of weights on an 8 MiB chip should OOM")
	}
	if oneChip.Throughput != 0 {
		t.Fatalf("invalid partition must report zero throughput, got %v", oneChip.Throughput)
	}
	split := sim.Evaluate(g, partition.Partition{0, 1})
	if !split.Valid {
		t.Fatalf("split should fit: %s", split.FailReason)
	}
}

func TestLinkContentionRaisesInterval(t *testing.T) {
	pkg := mcm.Dev4()
	sim := New(pkg, Options{})
	// Two parallel chains, both crossing from chip side 0/1 to 2/3 with
	// big tensors: the middle link sees both transfers.
	g := graph.New("contend")
	a0 := g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, OutputBytes: 2 << 20})
	a1 := g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, OutputBytes: 1})
	b0 := g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, OutputBytes: 2 << 20})
	b1 := g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, OutputBytes: 1})
	g.MustAddEdge(a0, a1, 2<<20)
	g.MustAddEdge(b0, b1, 2<<20)
	p := partition.Partition{0, 2, 1, 3}
	res := sim.Evaluate(g, p)
	if !res.Valid {
		t.Fatalf("unexpected failure: %s", res.FailReason)
	}
	// Link 1 carries both 2 MiB transfers.
	perTransfer := pkg.LinkLatency + float64(2<<20)/pkg.LinkBandwidth
	if res.LinkBusy[1] < 2*perTransfer*0.99 {
		t.Fatalf("middle link busy = %v, want ~%v", res.LinkBusy[1], 2*perTransfer)
	}
	if res.Interval < res.LinkBusy[1] {
		t.Fatal("interval should be at least the bottleneck link time")
	}
}

// TestBackwardsTransferRejected is the regression test for the
// cost-model/simulator divergence on illegal transfers: Evaluate used to
// price a backwards (dst < src) cut edge at zero — the ring-link loop just
// never executed — while costmodel.Latency panicked on the same partition.
// The simulator must instead return an invalid Result with an explicit
// FailReason.
func TestBackwardsTransferRejected(t *testing.T) {
	sim := New(mcm.Dev4(), Options{})
	g := pipelineGraph(t)
	// Chip assignment flows 1 -> 0 across the first edge: illegal on the
	// uni-directional ring.
	p := partition.Partition{1, 0, 1, 1, 2, 2, 3, 3}
	res := sim.Evaluate(g, p)
	if res.Valid {
		t.Fatal("backwards transfer must invalidate the partition, not be priced at zero")
	}
	if !strings.Contains(res.FailReason, "illegal transfer") {
		t.Fatalf("FailReason = %q, want an illegal-transfer explanation", res.FailReason)
	}
	if res.Throughput != 0 {
		t.Fatalf("invalid partition must report zero throughput, got %v", res.Throughput)
	}
	// The same partition is legal on a bidirectional ring, which can route
	// chip 1 -> chip 0.
	bi := mcm.Dev4()
	bi.Topology = mcm.TopoBiRing
	if res := New(bi, Options{}).Evaluate(g, p); !res.Valid {
		t.Fatalf("biring should route the backwards edge: %s", res.FailReason)
	}
}

// TestCostModelAndSimulatorAgreeOnLegality pins the shared legality
// contract: for any partition, the analytical model and the simulator must
// agree on whether its transfers are routable (the model stays blind to
// memory, so the comparison uses partitions that fit SRAM).
func TestCostModelAndSimulatorAgreeOnLegality(t *testing.T) {
	g := pipelineGraph(t)
	for _, pkg := range []*mcm.Package{mcm.Dev4(), mcm.Dev8Bi(), mcm.Het4()} {
		sim := New(pkg, Options{})
		model := costmodel.New(pkg)
		cases := []partition.Partition{
			{0, 0, 1, 1, 2, 2, 3, 3},                // legal pipeline
			{1, 0, 1, 1, 2, 2, 3, 3},                // backwards first edge
			{3, 2, 1, 0, 0, 0, 0, 0},                // fully reversed
			make(partition.Partition, g.NumNodes()), // all on chip 0
		}
		for _, p := range cases {
			modelOK := model.Assess(g, p).Valid
			res := sim.Evaluate(g, p)
			simLegal := res.Valid || !strings.Contains(res.FailReason, "illegal transfer")
			if modelOK != simLegal {
				t.Errorf("%s: legality disagreement on %v: model %t, simulator %t (%s)",
					pkg.Name, p, modelOK, simLegal, res.FailReason)
			}
		}
	}
}

// TestHeterogeneousSRAMPerChip checks the per-chip memory constraint: a
// working set that fits a big die must be rejected on a little die.
func TestHeterogeneousSRAMPerChip(t *testing.T) {
	pkg := mcm.Het4() // chips 0,1: 16 MiB; chips 2,3: 8 MiB
	sim := New(pkg, Options{})
	g := graph.New("fat")
	g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e9, ParamBytes: 10 << 20, OutputBytes: 1 << 10})
	g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e9, ParamBytes: 1 << 20, OutputBytes: 1 << 10})
	g.MustAddEdge(0, 1, 1<<10)
	onBig := sim.Evaluate(g, partition.Partition{0, 1})
	if !onBig.Valid {
		t.Fatalf("10 MiB of weights should fit the 16 MiB die: %s", onBig.FailReason)
	}
	// The same fat op on a little die (made reachable by keeping dataflow
	// monotone: predecessor stays on chip 2's side) must OOM.
	onLittle := sim.Evaluate(g, partition.Partition{2, 3})
	if onLittle.Valid {
		t.Fatal("10 MiB of weights must not fit the 8 MiB die")
	}
	if onLittle.FailReason != "out of memory on chip" {
		t.Fatalf("FailReason = %q", onLittle.FailReason)
	}
}

// TestHeterogeneousComputePerChip checks that compute time scales with the
// chip's own peak rate: the same op runs 2x slower on a little die.
func TestHeterogeneousComputePerChip(t *testing.T) {
	pkg := mcm.Het4()
	sim := New(pkg, Options{}) // 200 ns of dispatch is negligible beside 1e9 FLOPs
	mk := func(chip int) float64 {
		g := graph.New("one")
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e9, OutputBytes: 1})
		p := partition.Partition{chip}
		// Chips below must still be used: build the prefix with no-op
		// inputs so the partition stays valid.
		for c := 0; c < chip; c++ {
			v := g.AddNode(graph.Node{Op: graph.OpInput, OutputBytes: 1})
			g.MustAddEdge(v, 0, 1)
			p = append(p, c)
		}
		res := sim.Evaluate(g, p)
		if !res.Valid {
			t.Fatalf("chip %d eval failed: %s", chip, res.FailReason)
		}
		return res.ChipBusy[chip]
	}
	big, little := mk(0), mk(3)
	if ratio := little / big; ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("little/big busy ratio = %v, want ~2 (half the peak rate)", ratio)
	}
}

// TestMeshContentionUsesRoutes checks that mesh transfers occupy exactly
// their XY route's directed links.
func TestMeshContentionUsesRoutes(t *testing.T) {
	pkg := mcm.Mesh16()
	sim := New(pkg, Options{})
	g := graph.New("two")
	g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, OutputBytes: 1 << 20})
	g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, OutputBytes: 1})
	g.MustAddEdge(0, 1, 1<<20)
	res := sim.Evaluate(g, partition.Partition{0, 1})
	if !res.Valid {
		t.Fatalf("mesh eval failed: %s", res.FailReason)
	}
	topo, err := pkg.Topo()
	if err != nil {
		t.Fatal(err)
	}
	route, ok := topo.AppendRoute(nil, 0, 1)
	if !ok {
		t.Fatal("mesh 0->1 must be routable")
	}
	per := pkg.LinkLatency + float64(1<<20)/pkg.LinkBandwidth
	busyLinks := 0
	for l, busy := range res.LinkBusy {
		if busy == 0 {
			continue
		}
		busyLinks++
		if busy != per {
			t.Fatalf("link %d busy %v, want %v", l, busy, per)
		}
		found := false
		for _, r := range route {
			found = found || r == l
		}
		if !found {
			t.Fatalf("link %d busy but not on the 0->1 route %v", l, route)
		}
	}
	if busyLinks != len(route) {
		t.Fatalf("%d busy links for a %d-hop route", busyLinks, len(route))
	}
}

func TestMeasureNoiseDeterministicAndCentered(t *testing.T) {
	sim := New(mcm.Dev4(), Options{Seed: 7})
	g := pipelineGraph(t)
	p := partition.Partition{0, 0, 1, 1, 2, 2, 3, 3}
	a := sim.Measure(g, p, 0)
	b := sim.Measure(g, p, 0)
	if a.Throughput != b.Throughput {
		t.Fatal("same run index must reproduce exactly")
	}
	c := sim.Measure(g, p, 1)
	if a.Throughput == c.Throughput {
		t.Fatal("different runs should see different noise")
	}
	base := sim.Evaluate(g, p)
	const runs = 50
	var sum, sumSq float64
	for r := 0; r < runs; r++ {
		res := sim.Measure(g, p, r)
		if !res.Valid {
			t.Fatalf("run %d should be valid", r)
		}
		sum += res.Throughput
		sumSq += res.Throughput * res.Throughput
	}
	mean := sum / runs
	if sumSq/runs-mean*mean <= 0 {
		t.Fatal("noise should produce nonzero variance")
	}
	if math.Abs(mean-base.Throughput)/base.Throughput > 0.05 {
		t.Fatalf("mean %v too far from noise-free %v", mean, base.Throughput)
	}
}

func TestEfficiencyDifferentiatesOps(t *testing.T) {
	sim := New(mcm.Dev4(), Options{})
	mk := func(kind graph.OpKind) float64 {
		g := graph.New("k")
		g.AddNode(graph.Node{Op: kind, FLOPs: 1e9, OutputBytes: 1})
		res := sim.Evaluate(g, partition.Partition{0})
		return res.Interval
	}
	if mk(graph.OpElementwise) <= mk(graph.OpMatMul) {
		t.Fatal("memory-bound elementwise work should be slower per FLOP than matmul")
	}
}

// TestAssessContract pins the evaluation-environment contract: Assess is
// the measured run 0, valid with a positive throughput on a legal partition.
func TestAssessContract(t *testing.T) {
	sim := New(mcm.Dev4(), Options{})
	g := pipelineGraph(t)
	p := partition.Partition{0, 0, 1, 1, 2, 2, 3, 3}
	v := sim.Assess(g, p)
	if !v.Valid || v.Throughput <= 0 {
		t.Fatalf("Assess = (%v,%v)", v.Throughput, v.Valid)
	}
	if want := sim.Measure(g, p, 0).Throughput; v.Throughput != want {
		t.Fatalf("Assess throughput %v, want run 0's %v", v.Throughput, want)
	}
}

// balancedSplit cuts the topological order into contiguous chunks of
// roughly equal weight footprint, one per chip.
func balancedSplit(t *testing.T, g *graph.Graph, chips int) partition.Partition {
	t.Helper()
	remaining := g.TotalParamBytes()
	p := make(partition.Partition, g.NumNodes())
	lay, err := g.Layout()
	if err != nil {
		t.Fatal(err)
	}
	chip := 0
	var acc int64
	for _, v := range lay.Order {
		// Equal share of what is left over the chips that are left.
		target := remaining / int64(chips-chip)
		if acc+g.Node(v).ParamBytes > target && chip < chips-1 {
			chip++
			remaining -= acc
			acc = 0
		}
		p[v] = chip
		acc += g.Node(v).ParamBytes
	}
	return p
}

func TestBERTFitsWhenBalanced(t *testing.T) {
	g := workload.BERT()
	pkg := mcm.Edge36()
	sim := New(pkg, Options{})
	// A parameter-balanced contiguous split should fit in SRAM.
	p := balancedSplit(t, g, 36)
	res := sim.Evaluate(g, p)
	if !res.Valid {
		t.Fatalf("balanced BERT split should fit: %s (peak %v MiB)", res.FailReason, res.PeakMem)
	}
	// And an everything-on-three-chips split must OOM.
	for i := range p {
		p[i] = min3(p[i], 2)
	}
	if res := sim.Evaluate(g, p); res.Valid {
		t.Fatal("600 MiB of weights on 3 chips must OOM")
	}
}

func min3(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEvaluateAllocs pins what one simulator sample allocates on BERT/edge36:
// the Result's three vectors, a route buffer, and sched.Compute's schedules,
// op array and three scratch vectors — 9 measured, whatever the graph's size.
// It was 397 while the scheduler appended per-chip op lists and built a map
// per chip, and 4 149 before the graph memoized its layout. The ceiling is
// the guard against a per-sample graph analysis, or a per-chip table, coming
// back.
func TestEvaluateAllocs(t *testing.T) {
	g := workload.BERT()
	sim := New(mcm.Edge36(), Options{})
	p := balancedSplit(t, g, 36)
	if res := sim.Evaluate(g, p); !res.Valid {
		t.Fatal(res.FailReason)
	}
	const ceiling = 12
	if allocs := testing.AllocsPerRun(10, func() { sim.Evaluate(g, p) }); allocs > ceiling {
		t.Fatalf("Evaluate allocates %v times per sample, ceiling %d", allocs, ceiling)
	}
}
