// Benchmarks regenerating every table and figure of the paper's evaluation
// at quick scale, plus ablations of the design choices DESIGN.md calls out.
// Run them with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Each benchmark reports its headline numbers as custom metrics and prints
// the formatted result with -v. The full-scale variants run through
// cmd/mcmexp -scale full.
package mcmpart_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mcmpart"
	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/experiments"
	"mcmpart/internal/mcm"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
	"mcmpart/internal/workload"
)

// fig5Once shares the pre-training run (the slowest stage) across the
// benchmarks that need its checkpoint.
var (
	fig5Mu  sync.Mutex
	fig5Res *experiments.Fig5Result
	fig5Err error
)

func sharedFig5(b *testing.B) *experiments.Fig5Result {
	b.Helper()
	fig5Mu.Lock()
	defer fig5Mu.Unlock()
	if fig5Res == nil && fig5Err == nil {
		fig5Res, fig5Err = experiments.Figure5(context.Background(), experiments.Fig5Config{Scale: experiments.ScaleQuick, Seed: 1})
	}
	if fig5Err != nil {
		b.Fatal(fig5Err)
	}
	return fig5Res
}

// BenchmarkTable1Capabilities regenerates Table 1's capability matrix with
// measured evidence (validity rates, solver latency).
func BenchmarkTable1Capabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(1, 200)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RawValidPct, "raw-valid-%")
		b.ReportMetric(res.SolverValidPct, "solver-valid-%")
		fmt.Println(res.Format())
	}
}

// BenchmarkFigure5TestSetCurves regenerates Figure 5: geomean improvement
// curves over the held-out test graphs on the analytical cost model.
func BenchmarkFigure5TestSetCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedFig5(b)
		b.ReportMetric(res.Final[mcmpart.MethodRL], "RL-final-x")
		b.ReportMetric(res.Final[mcmpart.MethodRandom], "Random-final-x")
		fmt.Println(res.Format())
	}
}

// BenchmarkTable2SampleEfficiency regenerates Table 2: samples needed per
// geomean-improvement threshold.
func BenchmarkTable2SampleEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedFig5(b)
		t2 := experiments.Table2(res)
		fmt.Println(t2.Format("Table 2: samples to reach geomean improvement (test set, cost model)"))
	}
}

// BenchmarkFigure6BERTCurves regenerates Figure 6: BERT improvement curves
// over the greedy heuristic on the hardware simulator.
func BenchmarkFigure6BERTCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f5 := sharedFig5(b)
		res, err := experiments.Figure6(context.Background(), experiments.Fig6Config{
			Scale:   experiments.ScaleQuick,
			Seed:    1,
			Planner: f5.Planner,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Final[mcmpart.MethodRL], "RL-final-x")
		b.ReportMetric(res.RLvsRandomPct, "RL-vs-Random-%")
		fmt.Println(res.Format())
		t3 := experiments.Table3(res)
		fmt.Println(t3.Format("Table 3: samples to reach BERT improvement (hardware simulator)"))
		fmt.Println(experiments.SearchTimeSummary(t3))
	}
}

// BenchmarkTable3BERTSampleEfficiency regenerates Table 3 standalone (with
// a fresh, smaller Figure 6 run so it can be benchmarked independently).
func BenchmarkTable3BERTSampleEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f5 := sharedFig5(b)
		res, err := experiments.Figure6(context.Background(), experiments.Fig6Config{
			Scale:        experiments.ScaleQuick,
			Seed:         2,
			SampleBudget: 120,
			Planner:      f5.Planner,
		})
		if err != nil {
			b.Fatal(err)
		}
		t3 := experiments.Table3(res)
		fmt.Println(t3.Format("Table 3 (seed 2, 120-sample budget)"))
	}
}

// BenchmarkFigure7Calibration regenerates Figure 7: the analytical model vs
// the hardware simulator on random valid BERT partitions.
func BenchmarkFigure7Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(experiments.Fig7Config{Scale: experiments.ScaleQuick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PearsonR, "pearson-R")
		b.ReportMetric(res.InvalidPct, "hw-invalid-%")
		fmt.Println(res.Format())
	}
}

// --- Ablation benches (DESIGN.md Sec. 5) ---

// ablationEnv builds a mid-size environment on the cost model.
func ablationEnv(b *testing.B, useSample bool) *rl.Env {
	b.Helper()
	pkg := mcm.Dev8()
	g := workload.MLP(workload.MLPConfig{Name: "ab", Layers: 10, Input: 512, Hidden: 2048, Output: 256, Batch: 32})
	pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
	if err != nil {
		b.Fatal(err)
	}
	model := costmodel.New(pkg)
	baseTh := model.Assess(g, search.GreedyPackage(g, pkg)).Throughput
	env := rl.NewEnv(rl.NewGraphContext(g), pr, model, baseTh)
	env.UseSampleMode = useSample
	env.PartFactory = func() (cpsolver.Partitioner, error) {
		return cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
	}
	return env
}

// BenchmarkAblationSolverMode compares FIX vs SAMPLE mode under the same RL
// budget (the paper found FIX superior).
func BenchmarkAblationSolverMode(b *testing.B) {
	for _, mode := range []struct {
		name      string
		useSample bool
	}{{"FIX", false}, {"SAMPLE", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(5))
				env := ablationEnv(b, mode.useSample)
				policy := rl.NewPolicy(rl.QuickConfig(env.Part.Chips()), rng)
				trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
				trainer.TrainUntil(context.Background(), []*rl.Env{env}, 64)
				b.ReportMetric(env.BestImprovement(), "best-x")
			}
		})
	}
}

// BenchmarkAblationNoSolver reproduces the paper's "RL without constraint
// solver" finding: raw policy samples almost never satisfy the constraints,
// so the reward space is empty.
func BenchmarkAblationNoSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(6))
		env := ablationEnv(b, false)
		env.NoSolver = true
		policy := rl.NewPolicy(rl.QuickConfig(env.Part.Chips()), rng)
		trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
		trainer.TrainUntil(context.Background(), []*rl.Env{env}, 64)
		b.ReportMetric(float64(env.ValidSamples), "valid-samples")
		b.ReportMetric(env.BestImprovement(), "best-x")
	}
}

// BenchmarkAblationGNNSize compares GraphSAGE depths/widths under a fixed
// budget.
func BenchmarkAblationGNNSize(b *testing.B) {
	for _, cfg := range []struct {
		name          string
		hidden, depth int
	}{{"2x32", 32, 2}, {"4x64", 64, 4}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(7))
				env := ablationEnv(b, false)
				policy := rl.NewPolicy(rl.Config{
					Chips: env.Part.Chips(), Hidden: cfg.hidden, SAGELayers: cfg.depth, Iterations: 2,
				}, rng)
				trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
				trainer.TrainUntil(context.Background(), []*rl.Env{env}, 48)
				b.ReportMetric(env.BestImprovement(), "best-x")
			}
		})
	}
}

// BenchmarkAblationIterationT compares refinement depths T of Eq. 7.
func BenchmarkAblationIterationT(b *testing.B) {
	for _, T := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "T1", 2: "T2", 4: "T4"}[T], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(8))
				env := ablationEnv(b, false)
				cfg := rl.QuickConfig(env.Part.Chips())
				cfg.Iterations = T
				policy := rl.NewPolicy(cfg, rng)
				trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
				trainer.TrainUntil(context.Background(), []*rl.Env{env}, 48)
				b.ReportMetric(env.BestImprovement(), "best-x")
			}
		})
	}
}

// BenchmarkAblationSolverOrder compares the CP solver's node traversal
// orders on a mid-size graph (the paper defaults to a fresh random order).
func BenchmarkAblationSolverOrder(b *testing.B) {
	g := workload.ResidualCNN(workload.CNNConfig{
		Name: "ab-order", InputSize: 32, Channels: 32, Stages: 2, BlocksPerStage: 2, Classes: 10,
	})
	s, err := cpsolver.New(g, 4, cpsolver.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < b.N; i++ {
			if _, err := s.Sample(nil, cpsolver.RandomOrder(rng, g.NumNodes()), nil, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topo", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < b.N; i++ {
			if _, err := s.Sample(nil, s.RandomTopoOrder(rng), nil, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}
