package rl_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
	"mcmpart/internal/workload"
)

// sameRun fails unless two training runs left bit-identical weights and
// environment trajectories.
func sameRun(t *testing.T, what string, want, got *rl.Trainer, wantEnv, gotEnv *rl.Env) {
	t.Helper()
	for i, p := range want.Policy.Params() {
		q := got.Policy.Params()[i]
		for j, v := range p.Value.Data {
			if math.Float64bits(v) != math.Float64bits(q.Value.Data[j]) {
				t.Fatalf("%s: weight %s[%d] is %v after the restarted run, %v after a new trainer's", what, p.Name, j, q.Value.Data[j], v)
			}
		}
	}
	if !reflect.DeepEqual(wantEnv.Best, gotEnv.Best) || math.Float64bits(wantEnv.BestThroughput) != math.Float64bits(gotEnv.BestThroughput) ||
		wantEnv.Samples != gotEnv.Samples || len(wantEnv.History) != len(gotEnv.History) || !reflect.DeepEqual(wantEnv.FailCounts, gotEnv.FailCounts) {
		t.Fatalf("%s: the restarted run's trajectory differs from a new trainer's", what)
	}
	for i, h := range wantEnv.History {
		if math.Float64bits(h) != math.Float64bits(gotEnv.History[i]) {
			t.Fatalf("%s: History[%d] = %v after the restarted run, %v after a new trainer's", what, i, gotEnv.History[i], h)
		}
	}
}

// TestRestartTrainsWhatANewTrainerDoes: a trainer Restarted between runs on
// one environment, Reset in between — its policy's and rollout workers'
// scratch, its records, buffers and partitioner replicas as the previous
// run left them — trains bit for bit what a new trainer from the same
// stream does on a fresh environment: restarted from scratch, what one on
// a new policy from the stream does, and restarted from a pre-trained
// policy, as a fine-tune plan is, what one on a clone of that policy does,
// the pre-trained weights left as they were. BERT/edge36 (the segmenter)
// and a Dev8 MLP (the CP solver), FIX and SAMPLE mode, runs alternating
// between two workers and one and between the two weight sources, the
// trainer's workers trimmed after each (so the second worker is dropped
// and grown again). Mutation caught: a Restart that keeps Adam's moments or
// step count, re-draws the weights in another order, keeps the previous
// stream or the previous weights, or trains the pre-trained policy itself.
func TestRestartTrainsWhatANewTrainerDoes(t *testing.T) {
	type instance struct {
		g   *graph.Graph
		pkg *mcm.Package
	}
	mlp := workload.MLP(workload.MLPConfig{Name: "det", Layers: 8, Input: 256, Hidden: 512, Output: 128, Batch: 16})
	instances := []instance{{workload.BERT(), mcm.Edge36()}, {mlp, mcm.Dev8()}}
	workers := []int{2, 1, 2}
	if testing.Short() || raceEnabled {
		instances, workers = instances[1:], workers[:2]
	}
	for _, in := range instances {
		for _, sample := range []bool{false, true} {
			cfg := rl.QuickConfig(in.pkg.Chips)
			kept := goldenEnv(t, in.g, in.pkg)
			kept.UseSampleMode = sample
			trainer := rl.NewTrainer(rl.NewPolicy(cfg, rand.New(rand.NewSource(99))), rl.QuickPPOConfig(), nil)
			pretrained := rl.NewPolicy(cfg, rand.New(rand.NewSource(98)))
			weights := pretrained.Snapshot()
			for i, w := range workers {
				seed := int64(i + 1)
				fresh := goldenEnv(t, in.g, in.pkg)
				fresh.UseSampleMode = sample
				rng := rand.New(rand.NewSource(seed))
				var from *rl.Policy // odd runs restart from the pre-trained weights
				var want *rl.Trainer
				if i%2 == 1 {
					from = pretrained
					want = rl.NewTrainer(pretrained.Clone(), rl.QuickPPOConfig(), rng)
				} else {
					want = rl.NewTrainer(rl.NewPolicy(cfg, rng), rl.QuickPPOConfig(), rng)
				}
				kept.Reset()
				trainer.Restart(from, rand.New(rand.NewSource(seed)))
				withWorkers(w, func() {
					if _, err := want.TrainUntil(context.Background(), []*rl.Env{fresh}, 16); err != nil {
						t.Fatal(err)
					}
					if _, err := trainer.TrainUntil(context.Background(), []*rl.Env{kept}, 16); err != nil {
						t.Fatal(err)
					}
				})
				sameRun(t, in.g.Name(), want, trainer, fresh, kept)
				if !reflect.DeepEqual(pretrained.Snapshot(), weights) {
					t.Fatalf("%s: a run restarted from a pre-trained policy changed its weights", in.g.Name())
				}
				trainer.TrimWorkers()
			}
		}
	}
}

// TestTrainerBytesEstimate: what a trainer and its environment say they
// hold is within 1 % of what they keep on the heap on BERT/edge36 once the
// trainer has trained on the environment at two workers — a rollout clone
// with its record and partitioner replica besides the trainer's own policy,
// records, optimizer and buffers — and the environment is Reset, so that
// the byte bound on the planner's training kits counts what they keep; and
// again once it has trained at one worker and trimmed the clone it no
// longer runs on. Mutation caught: a TrimWorkers that keeps the clones.
func TestTrainerBytesEstimate(t *testing.T) {
	if raceEnabled {
		t.Skip("a BERT training run; the race detector checks no estimate")
	}
	g, pkg := workload.BERT(), mcm.Edge36()
	model := costmodel.New(pkg)
	base := model.Assess(g, search.GreedyPackage(g, pkg)).Throughput // the graph's memoized layout too
	ctx := rl.NewGraphContextForPackage(g, pkg)
	withWorkers(2, func() {
		before := liveHeap()
		newPart := func() (cpsolver.Partitioner, error) { return cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{}) }
		pr, err := newPart()
		if err != nil {
			t.Fatal(err)
		}
		env := rl.NewEnv(ctx, pr, model, base)
		env.PartFactory = newPart
		rng := rand.New(rand.NewSource(1))
		trainer := rl.NewTrainer(rl.NewPolicy(rl.QuickConfig(pkg.Chips), rng), rl.QuickPPOConfig(), rng)
		if _, err := trainer.TrainUntil(context.Background(), []*rl.Env{env}, 32); err != nil {
			t.Fatal(err)
		}
		check := func(what string) uint64 {
			env.Reset()
			kept := liveHeap() - before
			runtime.KeepAlive(env)
			runtime.KeepAlive(trainer)
			est := uint64(trainer.Bytes() + env.Bytes())
			if est < kept*99/100 || est > kept*101/100 {
				t.Errorf("%s: a BERT training kit estimates %d bytes, it keeps %d", what, est, kept)
			}
			return est
		}
		two := check("two workers")
		withWorkers(1, func() {
			trainer.Restart(nil, rand.New(rand.NewSource(2)))
			if _, err := trainer.TrainUntil(context.Background(), []*rl.Env{env}, 32); err != nil {
				t.Fatal(err)
			}
		})
		trainer.TrimWorkers()
		if one := check("one worker, trimmed"); one >= two {
			t.Errorf("trimmed to one worker the kit estimates %d bytes, at two %d", one, two)
		}
	})
}
