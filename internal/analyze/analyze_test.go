package analyze

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/randgraph"
)

// chain builds an n-node chain of MatMuls with the given per-node FLOPs and
// weight bytes.
func chain(t *testing.T, n int, flops float64, params int64) *graph.Graph {
	t.Helper()
	g := graph.New("chain")
	prev := -1
	for i := 0; i < n; i++ {
		id := g.AddNode(graph.Node{Name: "mm", Op: graph.OpMatMul, FLOPs: flops, ParamBytes: params, OutputBytes: 1024})
		if prev >= 0 {
			if err := g.AddEdge(prev, id, 1024); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChainDomainsAndKRange(t *testing.T) {
	pkg := mcm.Dev4() // 4 chips x 8 MiB
	// 8 nodes x 3 MiB: a chip holds at most 2 nodes, so at least 4 chips.
	g := chain(t, 8, 1e9, 3<<20)
	a, err := New(g, pkg)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate capacity would admit K=3 (24 MiB over 3 chips) but node
	// granularity does not (at most 2 nodes per chip); constructK's
	// backward fill closes that integrality gap.
	if a.constructK(3, make([]int, 2)) {
		t.Fatal("constructK(3) found a layout; three 8 MiB chips cannot hold eight 3 MiB nodes")
	}
	if _, info, err := a.Plan(Options{}); err != nil || info.Chips != 4 {
		t.Fatalf("Plan: K = %d, err = %v; want K = 4", info.Chips, err)
	}
}

func TestPlanChainForced(t *testing.T) {
	pkg := mcm.Dev4()
	g := chain(t, 8, 1e9, 3<<20)
	a, err := New(g, pkg)
	if err != nil {
		t.Fatal(err)
	}
	p, info, err := a.Plan(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Chips != 4 {
		t.Fatalf("plan uses %d chips, want 4", info.Chips)
	}
	if err := p.ValidateOn(g, pkg); err != nil {
		t.Fatalf("analytic plan invalid: %v", err)
	}
	for v := 0; v < 8; v++ {
		if p[v] != v/2 {
			t.Fatalf("p[%d] = %d, want %d (forced layout)", v, p[v], v/2)
		}
	}
	// The reported latency is the exact analytical-model interval.
	want := costmodel.New(pkg).Latency(g, p)
	if info.Latency != want {
		t.Fatalf("info.Latency = %g, costmodel.Latency = %g", info.Latency, want)
	}
	if info.LB.Total <= 0 || info.LB.Total > info.Latency {
		t.Fatalf("LB.Total = %g not in (0, %g]", info.LB.Total, info.Latency)
	}
}

func TestPlanMatchesCostmodelOnRandomGraphs(t *testing.T) {
	presets := []*mcm.Package{mcm.Dev4(), mcm.Dev8(), mcm.Het4()}
	model := map[*mcm.Package]*costmodel.Model{}
	for _, pkg := range presets {
		model[pkg] = costmodel.New(pkg)
	}
	planned := 0
	for i := 0; i < 24; i++ {
		g := randgraph.Sample(7, i)
		for _, pkg := range presets {
			a, err := New(g, pkg)
			if err != nil {
				t.Fatal(err)
			}
			p, info, err := a.Plan(Options{})
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			if err != nil {
				t.Fatalf("graph %d on %s: %v", i, pkg.Name, err)
			}
			planned++
			if err := p.ValidateOn(g, pkg); err != nil {
				t.Fatalf("graph %d on %s: invalid plan: %v", i, pkg.Name, err)
			}
			want := model[pkg].Latency(g, p)
			if diff := info.Latency - want; diff > 1e-12*want || diff < -1e-12*want {
				t.Fatalf("graph %d on %s: info.Latency = %g, costmodel = %g", i, pkg.Name, info.Latency, want)
			}
			if info.LB.Total > want*(1+1e-12) {
				t.Fatalf("graph %d on %s: LB %g exceeds own plan latency %g", i, pkg.Name, info.LB.Total, want)
			}
		}
	}
	if planned < 30 {
		t.Fatalf("only %d plans succeeded across the sweep, want >= 30", planned)
	}
}

// TestComputeBoundSoundOnSegmentations checks the ValidateOn-family half of
// the soundness contract directly: the Compute term never exceeds the
// analytical latency of any contiguous segmentation, memory-fitting or not.
func TestComputeBoundSoundOnSegmentations(t *testing.T) {
	pkg := mcm.Dev8()
	model := costmodel.New(pkg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		g := randgraph.Sample(11, i)
		a, err := New(g, pkg)
		if err != nil {
			t.Fatal(err)
		}
		lb := a.LowerBound()
		sg, err := cpsolver.NewSegmenter(g, pkg.Chips)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 40; s++ {
			p, err := sg.Sample(nil, rng)
			if err != nil {
				t.Fatal(err)
			}
			lat := model.Latency(g, p)
			if lb.Compute > lat*(1+1e-12) {
				t.Fatalf("graph %d sample %d: Compute bound %g > latency %g", i, s, lb.Compute, lat)
			}
		}
	}
}

func TestInfeasibleWeights(t *testing.T) {
	pkg := mcm.Dev4()            // 32 MiB total
	g := chain(t, 8, 1e9, 8<<20) // 64 MiB of weights
	a, err := New(g, pkg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = a.Plan(Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Plan error = %v, want ErrInfeasible", err)
	}
	if !errors.Is(err, cpsolver.ErrInfeasible) {
		t.Fatalf("Plan error %v should wrap cpsolver.ErrInfeasible", err)
	}
}

func TestSingleNodeTooLarge(t *testing.T) {
	pkg := mcm.Dev4()
	g := chain(t, 4, 1e9, 1<<20)
	// Make one node individually larger than any chip.
	g2 := graph.New("big-node")
	for _, nd := range g.Nodes() {
		n2 := nd
		if nd.ID == 2 {
			n2.ParamBytes = 16 << 20
		}
		g2.AddNode(graph.Node{Name: n2.Name, Op: n2.Op, FLOPs: n2.FLOPs, ParamBytes: n2.ParamBytes, OutputBytes: n2.OutputBytes})
	}
	for _, e := range g.Edges() {
		if err := g2.AddEdge(e.From, e.To, e.Bytes); err != nil {
			t.Fatal(err)
		}
	}
	a, err := New(g2, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Plan(Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Plan error = %v, want ErrInfeasible", err)
	}
}

func TestPlanDeterminism(t *testing.T) {
	pkg := mcm.Het4()
	for i := 0; i < 6; i++ {
		g := randgraph.Sample(5, i)
		a1, err := New(g, pkg)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := New(g, pkg)
		if err != nil {
			t.Fatal(err)
		}
		p1, i1, err1 := a1.Plan(Options{})
		p2, i2, err2 := a2.Plan(Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("graph %d: divergent errors %v vs %v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if i1 != i2 {
			t.Fatalf("graph %d: divergent PlanInfo %+v vs %+v", i, i1, i2)
		}
		for v := range p1 {
			if p1[v] != p2[v] {
				t.Fatalf("graph %d: divergent plans at node %d", i, v)
			}
		}
	}
}

// TestPlanConcurrent holds the Analysis concurrency contract: Plan from four
// goroutines on one Analysis returns what a serial Plan does (run under
// -race in CI).
func TestPlanConcurrent(t *testing.T) {
	pkg := mcm.Het4()
	g := randgraph.Sample(5, 1)
	a, err := New(g, pkg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantInfo, err := a.Plan(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, info, err := a.Plan(Options{})
			switch {
			case err != nil:
				errs[i] = err
			case info != wantInfo || !slices.Equal(p, want):
				errs[i] = fmt.Errorf("goroutine %d: plan %v %+v, serial %v %+v", i, p, info, want, wantInfo)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAnalyze10k times the analytic fast path as serve-warm's setup pays
// it: New and Plan on the first of its 10k-node layered graphs on edge36.
func BenchmarkAnalyze10k(b *testing.B) {
	pkg := mcm.Edge36()
	g := randgraph.Generate(randgraph.Config{Family: randgraph.FamilyLayered, Nodes: 10_000, Seed: 1})
	if _, err := g.Layout(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		a, err := New(g, pkg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := a.Plan(Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScale100k is the headline fast-path check: a 100k-node generated graph
// is analyzed and planned end to end on the 36-chip package in seconds,
// producing a ValidateOn-clean partition — no per-candidate simulation, no
// search loop.
func TestScale100k(t *testing.T) {
	pkg := mcm.Edge36()
	start := time.Now()
	g := randgraph.Generate(randgraph.Config{Family: randgraph.FamilyLayered, Nodes: 100_000, Seed: 42})
	genDur := time.Since(start)

	start = time.Now()
	a, err := New(g, pkg)
	if err != nil {
		t.Fatal(err)
	}
	p, info, err := a.Plan(Options{})
	if err != nil {
		t.Fatal(err)
	}
	planDur := time.Since(start)

	if err := p.ValidateOn(g, pkg); err != nil {
		t.Fatalf("100k-node analytic plan invalid: %v", err)
	}
	if info.Chips < 2 {
		t.Fatalf("100k-node plan uses %d chips; the scaled weight budget should force a real split", info.Chips)
	}
	if info.LB.Total <= 0 || info.Latency < info.LB.Total {
		t.Fatalf("latency %g vs LB %g inconsistent", info.Latency, info.LB.Total)
	}
	// Generous CI budget: the whole path is near-linear, and even slow
	// runners finish in a small fraction of this.
	if limit := 30 * time.Second; planDur > limit {
		t.Fatalf("analyze+plan took %v, want < %v", planDur, limit)
	}
	t.Logf("100k nodes: generate %v, analyze+plan %v, K=%d, latency %.3gs, LB %.3gs",
		genDur, planDur, info.Chips, info.Latency, info.LB.Total)
}
