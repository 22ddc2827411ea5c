package rl_test

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/mat"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
	"mcmpart/internal/partition"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
	"mcmpart/internal/workload"
)

// TestConcurrentTrainersShareTheBudget pins the one nesting rule: rollout
// collection reserves its workers from the process lane budget, so however
// many trainers run at once (a Service's pool workers, concurrent trials),
// the evaluator never sees more than callers + Default()-1 goroutines. With
// a per-trainer worker count it saw callers x Default().
func TestConcurrentTrainersShareTheBudget(t *testing.T) {
	const callers, budget = 2, 2
	var running, peak atomic.Int64
	withWorkers(budget, func() {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			env := detEnv(t, false)
			model := env.Eval
			env.Eval = eval.Func(func(g *graph.Graph, p partition.Partition) eval.Verdict {
				now := running.Add(1)
				defer running.Add(-1)
				for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
				}
				time.Sleep(time.Millisecond) // long enough for every live worker to overlap
				return model.Assess(g, p)
			})
			rng := rand.New(rand.NewSource(int64(c)))
			trainer := rl.NewTrainer(rl.NewPolicy(rl.QuickConfig(env.Part.Chips()), rng), rl.QuickPPOConfig(), rng)
			wg.Add(1)
			go func() {
				defer wg.Done()
				trainer.Iterate([]*rl.Env{env})
			}()
		}
		wg.Wait()
		if got := parallel.AcquireLanes(budget); got != budget-1 {
			t.Errorf("after both trainers returned a fresh reservation got %d lanes, want %d", got, budget-1)
		} else {
			parallel.ReleaseLanes(got)
		}
	})
	if got, limit := peak.Load(), int64(callers+budget-1); got > limit {
		t.Fatalf("%d evaluations ran at once, want at most callers + Default()-1 = %d", got, limit)
	}
}

// TestBudgetAboveRolloutCountDeterminism keeps rollout fan-out and kernel
// fan-out overlapping (the case the race detector is here for): with the
// process default above the rollout count, collection takes Rollouts-1
// lanes and the matmuls inside its workers split over what is left. The
// graph is sized so those products cross mat.ParallelFlopThreshold.
func TestBudgetAboveRolloutCountDeterminism(t *testing.T) {
	pkg := mcm.Dev8()
	g := workload.MLP(workload.MLPConfig{Name: "wide", Layers: 64, Input: 256, Hidden: 256, Output: 128, Batch: 16})
	pcfg, ppo := rl.QuickConfig(pkg.Chips), rl.QuickPPOConfig()
	if flops := g.NumNodes() * pcfg.Hidden * pcfg.Hidden; flops < mat.ParallelFlopThreshold {
		t.Fatalf("%d nodes x %d hidden stays under the kernels' parallel threshold", g.NumNodes(), pcfg.Hidden)
	}
	newPart := func() (cpsolver.Partitioner, error) { return cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{}) }
	run := func(workers int) (history []float64, weights map[string][]float64) {
		withWorkers(workers, func() {
			pr, err := newPart()
			if err != nil {
				t.Fatal(err)
			}
			model := costmodel.New(pkg)
			baseTh := model.Assess(g, search.GreedyPackage(g, pkg)).Throughput
			env := rl.NewEnv(rl.NewGraphContext(g), pr, model, baseTh)
			env.PartFactory = newPart
			rng := rand.New(rand.NewSource(7))
			policy := rl.NewPolicy(pcfg, rng)
			rl.NewTrainer(policy, ppo, rng).Iterate([]*rl.Env{env})
			history, weights = env.History, policy.Snapshot()
		})
		return history, weights
	}
	h1, w1 := run(1)
	hN, wN := run(ppo.Rollouts + 4)
	if !reflect.DeepEqual(h1, hN) {
		t.Fatalf("history differs between a budget of 1 and of %d", ppo.Rollouts+4)
	}
	if !reflect.DeepEqual(w1, wN) {
		t.Fatalf("trained weights differ between a budget of 1 and of %d", ppo.Rollouts+4)
	}
}
