package rl_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
	"mcmpart/internal/partition"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
	"mcmpart/internal/workload"
)

// detEnv builds an environment with a partitioner factory, so rollout
// collection can fan out.
func detEnv(t testing.TB, useSample bool) *rl.Env {
	t.Helper()
	pkg := mcm.Dev8()
	g := workload.MLP(workload.MLPConfig{Name: "det", Layers: 8, Input: 256, Hidden: 512, Output: 128, Batch: 16})
	pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
	if err != nil {
		t.Fatal(err)
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

// withWorkers runs fn under a temporary process-default worker count, the
// budget rollout collection and the kernels reserve their lanes from.
func withWorkers(w int, fn func()) {
	old := parallel.Default()
	parallel.SetDefault(w)
	defer parallel.SetDefault(old)
	fn()
}

// trainAt runs a short PPO training at the given rollout worker count and
// returns the environment trajectory and final policy weights.
func trainAt(t testing.TB, workers int, useSample bool) (history []float64, weights map[string][]float64) {
	withWorkers(workers, func() {
		rng := rand.New(rand.NewSource(3))
		env := detEnv(t, useSample)
		policy := rl.NewPolicy(rl.QuickConfig(env.Part.Chips()), rng)
		trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
		if _, err := trainer.TrainUntil(context.Background(), []*rl.Env{env}, 64); err != nil {
			t.Fatal(err)
		}
		history, weights = env.History, policy.Snapshot()
	})
	return history, weights
}

// TestPPOWorkerCountDeterminism pins the rollout engine's contract: the
// same seed produces a bit-identical trajectory and bit-identical trained
// weights at workers=1 and workers=8, in both solver modes.
func TestPPOWorkerCountDeterminism(t *testing.T) {
	for _, mode := range []struct {
		name      string
		useSample bool
	}{{"FIX", false}, {"SAMPLE", true}} {
		t.Run(mode.name, func(t *testing.T) {
			h1, w1 := trainAt(t, 1, mode.useSample)
			h8, w8 := trainAt(t, 8, mode.useSample)
			if !reflect.DeepEqual(h1, h8) {
				t.Fatalf("history differs between workers=1 (%d samples) and workers=8 (%d samples)",
					len(h1), len(h8))
			}
			if !reflect.DeepEqual(map[string][]float64(w1), map[string][]float64(w8)) {
				t.Fatal("trained weights differ between workers=1 and workers=8")
			}
		})
	}
}

// TestPPOSerialFallbackWithoutFactory checks that environments without a
// partitioner factory still train correctly (collection silently falls back
// to one worker) and produce the same results as a factory-equipped run —
// the factory is a scheduling enabler, never a semantic input.
func TestPPOSerialFallbackWithoutFactory(t *testing.T) {
	run := func(strip bool) []float64 {
		rng := rand.New(rand.NewSource(4))
		env := detEnv(t, false)
		if strip {
			env.PartFactory = nil
		}
		policy := rl.NewPolicy(rl.QuickConfig(env.Part.Chips()), rng)
		if _, err := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng).TrainUntil(context.Background(), []*rl.Env{env}, 32); err != nil {
			t.Fatal(err)
		}
		return env.History
	}
	var with, without []float64
	withWorkers(8, func() { with, without = run(false), run(true) })
	if !reflect.DeepEqual(with, without) {
		t.Fatal("serial fallback trajectory differs from worker-pool trajectory")
	}
}

// TestNoSolverSampleModeParallel pins the replica-provisioning rule for the
// one configuration that bypasses the solver only on the FIX path: with
// NoSolver and UseSampleMode both set, SAMPLE mode still solves, so workers
// must get replicas (the race detector guards the sharing bug) and results
// must stay worker-count independent.
func TestNoSolverSampleModeParallel(t *testing.T) {
	run := func(workers int) (history []float64) {
		withWorkers(workers, func() {
			rng := rand.New(rand.NewSource(9))
			env := detEnv(t, true)
			env.NoSolver = true
			policy := rl.NewPolicy(rl.QuickConfig(env.Part.Chips()), rng)
			if _, err := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng).TrainUntil(context.Background(), []*rl.Env{env}, 32); err != nil {
				t.Fatal(err)
			}
			history = env.History
		})
		return history
	}
	if h1, h8 := run(1), run(8); !reflect.DeepEqual(h1, h8) {
		t.Fatal("NoSolver+SAMPLE trajectory differs between workers=1 and workers=8")
	}
}

// TestMultiEnvRoundRobinDeterminism checks the multi-environment pretraining
// shape: episodes round-robin over several environments, and every
// environment's trajectory is worker-count independent.
func TestMultiEnvRoundRobinDeterminism(t *testing.T) {
	run := func(workers int) (histories [][]float64) {
		withWorkers(workers, func() {
			rng := rand.New(rand.NewSource(6))
			envs := []*rl.Env{detEnv(t, true), detEnv(t, false)}
			policy := rl.NewPolicy(rl.QuickConfig(envs[0].Part.Chips()), rng)
			trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
			trainer.Iterate(envs)
			trainer.Iterate(envs)
			histories = [][]float64{envs[0].History, envs[1].History}
		})
		return histories
	}
	h1, h8 := run(1), run(8)
	if !reflect.DeepEqual(h1, h8) {
		t.Fatal("multi-env trajectories differ between workers=1 and workers=8")
	}
}

// TestEvaluatorPanicReachesCaller pins panic containment through the rollout
// fan-out: an evaluator that panics on a rollout worker goroutine surfaces
// as a panic on the goroutine driving Iterate, where the service's recover
// turns it into ErrPlanPanic, instead of killing the process.
func TestEvaluatorPanicReachesCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	env := detEnv(t, false)
	env.Eval = eval.Func(func(*graph.Graph, partition.Partition) eval.Verdict { panic("evaluator bug") })
	trainer := rl.NewTrainer(rl.NewPolicy(rl.QuickConfig(env.Part.Chips()), rng), rl.QuickPPOConfig(), rng)
	defer func() {
		if r := recover(); r != "evaluator bug" {
			t.Fatalf("recovered %v, want the evaluator's panic", r)
		}
	}()
	withWorkers(2, func() { trainer.Iterate([]*rl.Env{env}) })
	t.Fatal("Iterate returned normally")
}
