package mcmpart_test

import (
	"context"
	"math/rand"
	"testing"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/mcm"
	"mcmpart/internal/pretrain"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
	"mcmpart/internal/workload"
)

// TestEndToEndTransferPipeline exercises the full Figure 4 workflow on small
// budgets: corpus generation, pre-training with checkpoints and validation
// selection, zero-shot and fine-tuned deployment on a held-out graph, and a
// final hardware-simulator check of the best partition found.
func TestEndToEndTransferPipeline(t *testing.T) {
	pkg := mcm.Dev8()
	model := costmodel.New(pkg)
	factory := func(g *graph.Graph) (*rl.Env, error) {
		pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
		if err != nil {
			return nil, err
		}
		baseTh := model.Assess(g, search.GreedyPackage(g, pkg)).Throughput
		env := rl.NewEnv(rl.NewGraphContext(g), pr, model, baseTh)
		env.UseSampleMode = true
		return env, nil
	}
	ds := workload.Corpus(11)
	cfg := pretrain.Config{
		Policy:            rl.Config{Chips: pkg.Chips, Hidden: 12, SAGELayers: 1, Iterations: 2},
		PPO:               rl.QuickPPOConfig(),
		TotalSamples:      64,
		Checkpoints:       3,
		ValidationSamples: 4,
		Seed:              1,
	}
	cfg.PPO.Rollouts = 4
	cfg.PPO.Epochs = 2
	res, err := pretrain.Run(context.Background(), ds.Train[:3], ds.Validation[:2], factory, cfg)
	if err != nil {
		t.Fatal(err)
	}

	unseen := ds.Test[0]
	env, err := factory(unseen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	policy := rl.NewPolicy(cfg.Policy, rng)
	if err := policy.Restore(res.Best()); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.NewTrainer(policy, cfg.PPO, rng).TrainUntil(context.Background(), []*rl.Env{env}, 16); err != nil {
		t.Fatal(err)
	}
	if env.Best == nil {
		t.Fatal("fine-tuning found no valid partition")
	}
	if err := env.Best.Validate(unseen, pkg.Chips); err != nil {
		t.Fatalf("best partition invalid: %v", err)
	}
	// The deployment partition found on the cost model must also be
	// assessable on the simulator (it may or may not fit memory; the
	// simulator must give a definitive verdict, not an error).
	sim := hwsim.New(pkg, hwsim.Options{Seed: 12})
	hwres := sim.Evaluate(unseen, env.Best)
	if hwres.Valid && hwres.Throughput <= 0 {
		t.Fatal("valid hardware run must report positive throughput")
	}
}

// TestSearchMethodsAgreeOnEvaluator checks that all strategies respect the
// shared environment contract on the same graph: budgets consumed, monotone
// best-so-far histories, valid best partitions.
func TestSearchMethodsAgreeOnEvaluator(t *testing.T) {
	pkg := mcm.Dev8()
	g := workload.UnrolledLSTM(workload.RNNConfig{
		Name: "int-lstm", Steps: 6, Input: 128, Hidden: 256, Vocab: 512, Batch: 8,
	})
	model := costmodel.New(pkg)
	mk := func() *rl.Env {
		pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		baseTh := model.Assess(g, search.GreedyPackage(g, pkg)).Throughput
		env := rl.NewEnv(rl.NewGraphContext(g), pr, model, baseTh)
		env.UseSampleMode = true
		return env
	}
	rng := rand.New(rand.NewSource(13))

	random := mk()
	search.Random(context.Background(), random, 25, rng)
	sa := mk()
	search.Anneal(context.Background(), sa, 25, search.SAConfig{}, rng)
	rlEnv := mk()
	policy := rl.NewPolicy(rl.Config{Chips: pkg.Chips, Hidden: 12, SAGELayers: 1, Iterations: 1}, rng)
	trainer := rl.NewTrainer(policy, rl.PPOConfig{
		Rollouts: 4, MiniBatches: 1, Epochs: 1, LR: 3e-4, ClipEps: 0.2, ValueCoef: 0.5, EntropyCoef: 0.01,
	}, rng)
	if _, err := trainer.TrainUntil(context.Background(), []*rl.Env{rlEnv}, 25); err != nil {
		t.Fatal(err)
	}

	for name, env := range map[string]*rl.Env{"random": random, "sa": sa, "rl": rlEnv} {
		if env.Samples < 25 {
			t.Fatalf("%s consumed only %d samples", name, env.Samples)
		}
		if env.Best == nil {
			t.Fatalf("%s found nothing", name)
		}
		if err := env.Best.Validate(g, pkg.Chips); err != nil {
			t.Fatalf("%s best invalid: %v", name, err)
		}
		for i := 1; i < len(env.History); i++ {
			if env.History[i] < env.History[i-1] {
				t.Fatalf("%s history not monotone", name)
			}
		}
	}
}

// TestGreedyBaselineFitsHardwareAcrossCorpus is a failure-injection guard:
// the baseline every experiment normalizes against must itself pass the
// dynamic memory constraint, or improvement ratios become meaningless.
func TestGreedyBaselineFitsHardwareAcrossCorpus(t *testing.T) {
	pkg := mcm.Edge36()
	sim := hwsim.New(pkg, hwsim.Options{})
	for _, g := range workload.CorpusGraphs(1)[:25] {
		p := search.GreedyPackage(g, pkg)
		res := sim.Evaluate(g, p)
		if !res.Valid {
			t.Errorf("%s: greedy baseline fails on hardware: %s", g.Name(), res.FailReason)
		}
	}
	bert := workload.BERT()
	if res := sim.Evaluate(bert, search.GreedyPackage(bert, pkg)); !res.Valid {
		t.Errorf("BERT greedy baseline fails on hardware: %s", res.FailReason)
	}
}
