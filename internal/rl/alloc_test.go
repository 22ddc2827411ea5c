package rl

import (
	"math/rand"
	"testing"

	"mcmpart/internal/mat"
	"mcmpart/internal/parallel"
)

// The policy and the trainer own the scratch of their hot loops. These
// ceilings keep it that way; each sits just above the measured figure, and
// the figure before the scratch was owned is noted beside it. The test
// graph is small enough that every kernel takes its serial path, so the
// counts do not depend on the host's CPU count.

// TestPolicyForwardBackwardAllocs: a steady-state evaluation and its
// backward pass allocate nothing (57 before).
func TestPolicyForwardBackwardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	env := testEnv(t, 4)
	p := NewPolicy(QuickConfig(4), rng)
	prev := unassigned(env.Ctx.G.NumNodes())
	dLogits := mat.New(len(prev), 4)
	pair := func() { p.Backward(p.Forward(env.Ctx, prev), dLogits, 1) }
	pair() // size the scratch
	if allocs := testing.AllocsPerRun(20, pair); allocs > 0 {
		t.Fatalf("Forward+Backward allocates %v times per pair in steady state, want 0", allocs)
	}
}

// TestIterateAllocs: one PPO iteration (8 rollouts x 2 steps collected, 4
// epochs x 16 transitions updated) allocates what it hands out — actions,
// partitions, transitions, trajectory — and the optimizer's per-step
// reduction: 296 to 322 measured, 4535 before.
func TestIterateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	envs := []*Env{testEnv(t, 4)}
	old := parallel.Default()
	parallel.SetDefault(1)
	defer parallel.SetDefault(old)
	trainer := NewTrainer(NewPolicy(QuickConfig(4), rng), QuickPPOConfig(), rng)
	trainer.Iterate(envs) // size the scratch
	const ceiling = 360
	if allocs := testing.AllocsPerRun(5, func() { trainer.Iterate(envs) }); allocs > ceiling {
		t.Fatalf("Iterate allocates %v times in steady state, ceiling %d", allocs, ceiling)
	}
}
