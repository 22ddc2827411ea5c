package mcmpart_test

import (
	"context"
	"testing"

	"mcmpart"
)

func smallGraph(t *testing.T) *mcmpart.Graph {
	t.Helper()
	g := mcmpart.NewGraph("api-test")
	prev := -1
	for i := 0; i < 12; i++ {
		id := g.AddNode(mcmpart.Node{
			Name:        "fc",
			Op:          mcmpart.OpKind(4), // matmul
			FLOPs:       1e9,
			ParamBytes:  1 << 20,
			OutputBytes: 1 << 16,
		})
		if prev >= 0 {
			g.MustAddEdge(prev, id, 1<<16)
		}
		prev = id
	}
	return g
}

// planOnce plans g on a throwaway planning session for pkg.
func planOnce(g *mcmpart.Graph, pkg *mcmpart.Package, opts mcmpart.PlanOptions) (*mcmpart.Result, error) {
	pl, err := mcmpart.NewPlanner(pkg)
	if err != nil {
		return nil, err
	}
	return pl.Plan(context.Background(), g, opts)
}

// The TestPartitionGraph* names are pinned by the test floor; the tests
// drive NewPlanner + Planner.Plan.

func TestPartitionGraphMethods(t *testing.T) {
	g := smallGraph(t)
	pkg := mcmpart.Dev4()
	for _, m := range []mcmpart.Method{mcmpart.MethodGreedy, mcmpart.MethodRandom, mcmpart.MethodSA} {
		res, err := planOnce(g, pkg, mcmpart.PlanOptions{Method: m, SampleBudget: 30, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := mcmpart.Validate(g, pkg, res.Partition); err != nil {
			t.Fatalf("%s produced invalid partition: %v", m, err)
		}
		if res.Throughput <= 0 || res.Improvement <= 0 {
			t.Fatalf("%s: bad result %+v", m, res)
		}
	}
}

func TestPartitionGraphRL(t *testing.T) {
	g := smallGraph(t)
	pkg := mcmpart.Dev4()
	res, err := planOnce(g, pkg, mcmpart.PlanOptions{Method: mcmpart.MethodRL, SampleBudget: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mcmpart.Validate(g, pkg, res.Partition); err != nil {
		t.Fatal(err)
	}
	// The RL search should at least match the greedy baseline.
	if res.Improvement < 1 {
		t.Fatalf("RL improvement %.3f < 1", res.Improvement)
	}
}

func TestPartitionGraphWithSimulator(t *testing.T) {
	g := smallGraph(t)
	pkg := mcmpart.Dev4()
	res, err := planOnce(g, pkg, mcmpart.PlanOptions{
		Method: mcmpart.MethodRandom, SampleBudget: 20, Seed: 3, UseSimulator: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hw := mcmpart.Evaluate(g, pkg, res.Partition)
	if !hw.Valid {
		t.Fatalf("simulator-searched partition invalid on hardware: %s", hw.FailReason)
	}
	if est := mcmpart.EstimateThroughput(g, pkg, res.Partition); est <= 0 {
		t.Fatal("analytical estimate should be positive")
	}
}

func TestPartitionGraphErrors(t *testing.T) {
	g := smallGraph(t)
	pkg := mcmpart.Dev4()
	if _, err := planOnce(g, pkg, mcmpart.PlanOptions{Method: "bogus"}); err == nil {
		t.Fatal("unknown method should fail")
	}
	bad := *pkg
	bad.Chips = 0
	if _, err := planOnce(g, &bad, mcmpart.PlanOptions{}); err == nil {
		t.Fatal("invalid package should fail")
	}
	empty := mcmpart.NewGraph("empty")
	if _, err := planOnce(empty, pkg, mcmpart.PlanOptions{}); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestBERTAndCorpusAccessors(t *testing.T) {
	if g := mcmpart.BERT(); g.NumNodes() != 2138 {
		t.Fatalf("BERT nodes = %d", g.NumNodes())
	}
	if gs := mcmpart.CorpusGraphs(1); len(gs) != 87 {
		t.Fatalf("corpus size = %d", len(gs))
	}
	if _, err := mcmpart.PackagePreset("edge36"); err != nil {
		t.Fatal(err)
	}
	if _, err := mcmpart.PackagePreset("nope"); err == nil {
		t.Fatal("unknown preset should fail")
	}
}
