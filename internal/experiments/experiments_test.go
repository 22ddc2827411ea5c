package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/mcm"
)

// tinyFig5 runs the Figure 5 pipeline with the smallest budgets that still
// exercise every code path.
func tinyFig5(t *testing.T) *Fig5Result {
	t.Helper()
	res, err := Figure5(context.Background(), Fig5Config{
		Scale:           ScaleQuick,
		Seed:            3,
		SampleBudget:    12,
		TestGraphs:      2,
		PretrainSamples: 40,
		TrainGraphs:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFigure5SmokeAndTable2(t *testing.T) {
	res := tinyFig5(t)
	for _, m := range Methods {
		curve := res.Curves[m]
		if len(curve) != res.Cfg.SampleBudget {
			t.Fatalf("%s curve has %d points, want %d", m, len(curve), res.Cfg.SampleBudget)
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1]-1e-9 {
				t.Fatalf("%s geomean curve not monotone at %d", m, i)
			}
		}
		if res.Final[m] <= 0 {
			t.Fatalf("%s final improvement %v", m, res.Final[m])
		}
	}
	out := res.Format()
	for _, want := range []string{"Figure 5", "Random", "RL Finetuning"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	t2 := Table2(res)
	if len(t2.Thresholds) != 3 {
		t.Fatalf("Table 2 has %d thresholds", len(t2.Thresholds))
	}
	if !strings.Contains(t2.Format("Table 2"), "method") {
		t.Fatal("Table 2 format broken")
	}
}

func TestFigure6SmokeAndTable3(t *testing.T) {
	f5 := tinyFig5(t)
	res, err := Figure6(context.Background(), Fig6Config{
		Scale:        ScaleQuick,
		Seed:         3,
		SampleBudget: 10,
		Planner:      f5.Planner,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods {
		if len(res.Curves[m]) != 10 {
			t.Fatalf("%s curve has %d points", m, len(res.Curves[m]))
		}
	}
	out := res.Format()
	if !strings.Contains(out, "BERT") || !strings.Contains(out, "RL vs Random") {
		t.Fatalf("Figure 6 format broken:\n%s", out)
	}
	t3 := Table3(res)
	summary := SearchTimeSummary(t3)
	if summary == "" {
		t.Fatal("empty search-time summary")
	}
}

func TestFigure7Smoke(t *testing.T) {
	res, err := Figure7(Fig7Config{Scale: ScaleQuick, Seed: 3, Samples: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predicted) != len(res.Measured) {
		t.Fatal("scatter axes length mismatch")
	}
	if len(res.Predicted) == 0 {
		t.Fatal("no valid samples in calibration")
	}
	if res.InvalidPct < 0 || res.InvalidPct > 100 {
		t.Fatalf("invalid rate %v", res.InvalidPct)
	}
	// The analytical model should correlate strongly but imperfectly.
	if res.PearsonR < 0.3 || res.PearsonR > 0.999 {
		t.Fatalf("Pearson R = %v, want strong-but-imperfect correlation", res.PearsonR)
	}
	if !strings.Contains(res.Format(), "Pearson") {
		t.Fatal("Figure 7 format broken")
	}
}

// TestFigure7HonoursPerChipCapacity pins the solver Figure 7 samples from to
// the package's per-chip SRAM: on a big/little edge36 whose little dies are a
// quarter the size, the capacity-bounded sampler finds no segmentation that
// fits and the study says so, where an unbounded one draws partitions the
// simulator then rejects one by one (100 % invalid, no error).
func TestFigure7HonoursPerChipCapacity(t *testing.T) {
	pkg := mcm.Edge36()
	pkg.ChipSRAMBytes = make([]int64, pkg.Chips)
	for c := range pkg.ChipSRAMBytes {
		pkg.ChipSRAMBytes[c] = pkg.SRAMBytes
		if c%2 == 1 {
			pkg.ChipSRAMBytes[c] = pkg.SRAMBytes / 4
		}
	}
	var err error
	withWorkers(2, func() { _, err = Figure7(Fig7Config{Pkg: pkg, Seed: 3, Samples: 8}) })
	if !errors.Is(err, cpsolver.ErrInfeasible) {
		t.Fatalf("err = %v, want cpsolver.ErrInfeasible", err)
	}
}

func TestTable1Smoke(t *testing.T) {
	res, err := Table1(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.SolverValidPct != 100 {
		t.Fatalf("solver validity = %v%%, want 100", res.SolverValidPct)
	}
	if res.RawValidPct > 50 {
		t.Fatalf("raw validity = %v%%; the valid space should be sparse", res.RawValidPct)
	}
	if !strings.Contains(res.Format(), "CPS+RL") {
		t.Fatal("Table 1 format broken")
	}
}

func TestHeteroSweepSmoke(t *testing.T) {
	res, err := HeteroSweep(context.Background(), HeteroConfig{Scale: ScaleQuick, Seed: 3, Budget: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("sweep has %d rows, want the 5 default packages", len(res.Rows))
	}
	topos := map[mcm.TopologyKind]bool{}
	hetero := false
	for _, row := range res.Rows {
		topos[row.Topology] = true
		hetero = hetero || row.Hetero
		if !row.GreedyValid {
			t.Errorf("%s: greedy baseline did not fit", row.Package)
			continue
		}
		if row.RandomImprovement <= 0 || row.SAImprovement <= 0 {
			t.Errorf("%s: search found nothing (random %v, sa %v)",
				row.Package, row.RandomImprovement, row.SAImprovement)
		}
	}
	if !hetero {
		t.Error("sweep covers no heterogeneous package")
	}
	for _, k := range []mcm.TopologyKind{mcm.TopoRing, mcm.TopoBiRing, mcm.TopoMesh} {
		if !topos[k] {
			t.Errorf("sweep covers no %s package", k)
		}
	}
	out := res.Format()
	for _, want := range []string{"het4", "mesh16", "dev8bi", "sa"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("quick"); err != nil || s != ScaleQuick {
		t.Fatal("quick")
	}
	if s, err := ParseScale("full"); err != nil || s != ScaleFull {
		t.Fatal("full")
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Fatal("bogus scale should fail")
	}
}
