package experiments

import (
	"context"
	"reflect"
	"testing"

	"mcmpart/internal/parallel"
)

// withWorkers runs fn under a temporary process-default worker count, the
// budget every fan-out in a run reserves its lanes from.
func withWorkers(w int, fn func()) {
	old := parallel.Default()
	parallel.SetDefault(w)
	defer parallel.SetDefault(old)
	fn()
}

// det5 runs Figure 5 at the given worker count, in a configuration small
// enough to run twice in a unit test while still exercising every stage:
// pre-training, validation checkpoint scoring, and all five methods on the
// test graphs.
func det5(t *testing.T, workers int) (res *Fig5Result) {
	withWorkers(workers, func() {
		var err error
		res, err = Figure5(context.Background(), Fig5Config{
			Scale:           ScaleQuick,
			Seed:            1,
			SampleBudget:    30,
			PretrainSamples: 60,
			TestGraphs:      2,
			TrainGraphs:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	return res
}

// TestFigure5WorkerCountDeterminism pins the experiment engine's contract
// end to end: a full Figure 5 run — PPO pre-training with fanned rollouts,
// parallel checkpoint validation, and concurrent (graph, method) trials —
// produces bit-identical curves at workers=1 and workers=8.
func TestFigure5WorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Figure 5 runs")
	}
	r1, r8 := det5(t, 1), det5(t, 8)
	for _, m := range Methods {
		if !reflect.DeepEqual(r1.Curves[m], r8.Curves[m]) {
			t.Fatalf("%s curve differs between workers=1 and workers=8", m)
		}
	}
	if !reflect.DeepEqual(r1.Pretrain.Scores, r8.Pretrain.Scores) {
		t.Fatalf("validation scores differ: %v vs %v", r1.Pretrain.Scores, r8.Pretrain.Scores)
	}
	if r1.Pretrain.BestIndex != r8.Pretrain.BestIndex {
		t.Fatalf("selected checkpoint differs: %d vs %d", r1.Pretrain.BestIndex, r8.Pretrain.BestIndex)
	}
}

// TestFigure7WorkerCountDeterminism pins the sampling fan-out: the scatter,
// correlation, and invalid rate are identical at workers=1 and workers=8.
func TestFigure7WorkerCountDeterminism(t *testing.T) {
	run := func(w int) (res *Fig7Result) {
		withWorkers(w, func() {
			var err error
			if res, err = Figure7(Fig7Config{Scale: ScaleQuick, Seed: 1, Samples: 60}); err != nil {
				t.Fatal(err)
			}
		})
		return res
	}
	r1, r8 := run(1), run(8)
	if !reflect.DeepEqual(r1.Predicted, r8.Predicted) || !reflect.DeepEqual(r1.Measured, r8.Measured) {
		t.Fatal("calibration scatter differs between workers=1 and workers=8")
	}
	if r1.PearsonR != r8.PearsonR || r1.InvalidPct != r8.InvalidPct {
		t.Fatalf("summary stats differ: R %v vs %v, invalid %v vs %v",
			r1.PearsonR, r8.PearsonR, r1.InvalidPct, r8.InvalidPct)
	}
}

// TestTable1WorkerCountDeterminism pins Table 1's two sampling fan-outs,
// raw draws and solver draws on per-worker partitioner replicas: both
// validity rates are identical at workers=1 and workers=4. The solve time
// is a measurement and is left out.
func TestTable1WorkerCountDeterminism(t *testing.T) {
	run := func(w int) (res *Table1Result) {
		withWorkers(w, func() {
			var err error
			if res, err = Table1(3, 40); err != nil {
				t.Fatal(err)
			}
		})
		return res
	}
	r1, r4 := run(1), run(4)
	if r1.RawValidPct != r4.RawValidPct || r1.SolverValidPct != r4.SolverValidPct {
		t.Fatalf("validity rates differ: raw %v vs %v, solver %v vs %v",
			r1.RawValidPct, r4.RawValidPct, r1.SolverValidPct, r4.SolverValidPct)
	}
}

// TestFigure6WorkerCountDeterminism pins the per-method trial fan-out on a
// reduced BERT budget, reusing one tiny pre-training run for both.
func TestFigure6WorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two BERT trial sweeps")
	}
	f5 := det5(t, 8)
	run := func(w int) (res *Fig6Result) {
		withWorkers(w, func() {
			var err error
			res, err = Figure6(context.Background(), Fig6Config{
				Scale:        ScaleQuick,
				Seed:         1,
				SampleBudget: 24,
				Planner:      f5.Planner,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		return res
	}
	r1, r8 := run(1), run(8)
	for _, m := range Methods {
		if !reflect.DeepEqual(r1.Curves[m], r8.Curves[m]) {
			t.Fatalf("%s BERT curve differs between workers=1 and workers=8", m)
		}
	}
}
