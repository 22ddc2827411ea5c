// Benchmarks for the parallel execution engine: each hot path runs at
// workers=1 and workers=default so `go test -bench=Parallel` shows the
// pool's effect directly. On multi-core hardware the default-workers
// variants should win; outputs are identical either way, which
// TestWorkerCountDeterminism* pins down.
package mcmpart_test

import (
	"context"
	"math/rand"
	"testing"

	"mcmpart/internal/experiments"
	"mcmpart/internal/parallel"
	"mcmpart/internal/rl"
)

// workerVariants runs the benchmark body under workers=1 and the process
// default worker count.
func workerVariants(b *testing.B, body func(b *testing.B)) {
	b.Helper()
	for _, w := range []int{1, 0} {
		name := "workers=1"
		if w == 0 {
			name = "workers=default"
		}
		b.Run(name, func(b *testing.B) {
			old := parallel.Default()
			parallel.SetDefault(w)
			defer parallel.SetDefault(old)
			body(b)
		})
	}
}

// BenchmarkParallelRollouts measures PPO rollout collection fan-out.
func BenchmarkParallelRollouts(b *testing.B) {
	workerVariants(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(5))
			env := ablationEnv(b, false)
			policy := rl.NewPolicy(rl.QuickConfig(env.Part.Chips()), rng)
			trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
			trainer.TrainUntil(context.Background(), []*rl.Env{env}, 96)
			b.ReportMetric(env.BestImprovement(), "best-x")
		}
	})
}

// BenchmarkParallelFig7Sampling measures the corpus-sampling fan-out of the
// calibration study (per-worker solver replicas, per-sample seeds).
func BenchmarkParallelFig7Sampling(b *testing.B) {
	workerVariants(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.Figure7(experiments.Fig7Config{
				Scale: experiments.ScaleQuick, Seed: 1, Samples: 120,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.PearsonR, "pearson-R")
		}
	})
}
