package rl_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mcmpart/internal/mcm"
	"mcmpart/internal/rl"
	"mcmpart/internal/workload"
)

// TestDeploymentZeroShotMatchesZeroShot: a Deployment's zero-shot plans on
// one environment, Reset in between, are bit for bit ZeroShot's on fresh
// environments — the start distribution read from the record instead of
// computed, the solver's tables left by the previous plan — and the
// deployment is read-only: NewDeployment's record does not move.
func TestDeploymentZeroShotMatchesZeroShot(t *testing.T) {
	g, pkg := workload.BERT(), mcm.Edge36()
	policy := rl.NewPolicy(rl.QuickConfig(pkg.Chips), rand.New(rand.NewSource(1)))
	reused := goldenEnv(t, g, pkg)
	reused.UseSampleMode = true
	dep := rl.NewDeployment(policy.Clone(), reused.Ctx)
	for seed := int64(1); seed <= 3; seed++ {
		fresh := goldenEnv(t, g, pkg)
		fresh.UseSampleMode = true
		if err := rl.ZeroShot(context.Background(), policy.Clone(), fresh, 12, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		reused.Reset()
		if err := dep.ZeroShot(context.Background(), policy.Clone(), reused, 12, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Best, reused.Best) || math.Float64bits(fresh.BestThroughput) != math.Float64bits(reused.BestThroughput) ||
			fresh.Samples != reused.Samples || len(fresh.History) != len(reused.History) {
			t.Fatalf("seed %d: the deployment's plan differs from ZeroShot's", seed)
		}
		for i, h := range fresh.History {
			if math.Float64bits(h) != math.Float64bits(reused.History[i]) {
				t.Fatalf("seed %d: History[%d] = %v from the deployment, %v from ZeroShot", seed, i, reused.History[i], h)
			}
		}
	}
}

// TestDeploymentBytesEstimate: what a Deployment says it holds is within a
// fifth of what building one keeps on the heap on BERT (the policy's head
// scratch, which the build also writes, subtracted), so the byte bound on
// a policy's deployments bounds memory.
func TestDeploymentBytesEstimate(t *testing.T) {
	g, pkg := workload.BERT(), mcm.Edge36()
	policy := rl.NewPolicy(rl.QuickConfig(pkg.Chips), rand.New(rand.NewSource(1)))
	ctx := rl.NewGraphContextForPackage(g, pkg)
	policy.Forward(ctx, make([]int, g.NumNodes())) // size the head scratch
	var dep *rl.Deployment
	withWorkers(1, func() {
		built := heapBytes(func() { dep = rl.NewDeployment(policy, rl.NewGraphContextForPackage(g.Clone(), pkg)) })
		// The clone's adjacency and layout are built on its first use.
		built += heapBytes(func() { _ = dep.Ctx.G.Validate() })
		if est := uint64(dep.Bytes()); est < built*4/5 || est > built*6/5 {
			t.Errorf("a BERT deployment estimates %d bytes, its build keeps %d", est, built)
		}
	})
}
