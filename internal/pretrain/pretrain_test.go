package pretrain

import (
	"context"
	"math/rand"
	"testing"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
	"mcmpart/internal/workload"
)

func tinyFactory(t *testing.T, pkg *mcm.Package) EnvFactory {
	t.Helper()
	model := costmodel.New(pkg)
	return func(g *graph.Graph) (*rl.Env, error) {
		pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
		if err != nil {
			return nil, err
		}
		baseTh := model.Assess(g, search.GreedyPackage(g, pkg)).Throughput
		return rl.NewEnv(rl.NewGraphContext(g), pr, model, baseTh), nil
	}
}

func tinyGraphs(n int) []*graph.Graph {
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = workload.MLP(workload.MLPConfig{
			Name: "m", Layers: 4 + i, Input: 128, Hidden: 256, Output: 32, Batch: 8,
		})
	}
	return gs
}

func TestRunEmitsCheckpointsAndPicksBest(t *testing.T) {
	pkg := mcm.Dev4()
	cfg := Config{
		Policy:            rl.Config{Chips: pkg.Chips, Hidden: 8, SAGELayers: 1, Iterations: 1},
		PPO:               rl.QuickPPOConfig(),
		TotalSamples:      40,
		Checkpoints:       4,
		ValidationSamples: 3,
		Seed:              1,
	}
	cfg.PPO.Rollouts = 4
	cfg.PPO.Epochs = 1
	res, err := Run(context.Background(), tinyGraphs(3), tinyGraphs(1), tinyFactory(t, pkg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) == 0 || len(res.Checkpoints) > cfg.Checkpoints+1 {
		t.Fatalf("checkpoints = %d", len(res.Checkpoints))
	}
	if len(res.Scores) != len(res.Checkpoints) {
		t.Fatalf("scores/checkpoints mismatch: %d vs %d", len(res.Scores), len(res.Checkpoints))
	}
	if res.BestIndex < 0 || res.BestIndex >= len(res.Checkpoints) {
		t.Fatalf("bad best index %d", res.BestIndex)
	}
	for i, s := range res.Scores {
		if s > res.Scores[res.BestIndex] {
			t.Fatalf("checkpoint %d (%.3f) beats selected %d (%.3f)", i, s, res.BestIndex, res.Scores[res.BestIndex])
		}
	}
	if len(res.TrainStats) == 0 {
		t.Fatal("no training iterations recorded")
	}
	// The selected checkpoint restores into a fresh policy and runs.
	rng := rand.New(rand.NewSource(9))
	p := rl.NewPolicy(cfg.Policy, rng)
	if err := p.Restore(res.Best()); err != nil {
		t.Fatal(err)
	}
	env, err := tinyFactory(t, pkg)(tinyGraphs(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.ZeroShot(context.Background(), p, env, 4, rng); err != nil {
		t.Fatal(err)
	}
	if env.Samples < 4 {
		t.Fatal("zero-shot deployment did not consume its budget")
	}
}

func TestRunRejectsEmptySets(t *testing.T) {
	pkg := mcm.Dev4()
	cfg := Config{
		Policy:            rl.QuickConfig(pkg.Chips),
		PPO:               rl.QuickPPOConfig(),
		TotalSamples:      2000,
		Checkpoints:       10,
		ValidationSamples: 8,
		Seed:              1,
	}
	if _, err := Run(context.Background(), nil, tinyGraphs(1), tinyFactory(t, pkg), cfg); err == nil {
		t.Fatal("empty training set should fail")
	}
	if _, err := Run(context.Background(), tinyGraphs(1), nil, tinyFactory(t, pkg), cfg); err == nil {
		t.Fatal("empty validation set should fail")
	}
}
