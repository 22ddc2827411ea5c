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
	"mcmpart/internal/mcm"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
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

// TestKitBytesEstimate: what a Deployment says one idle kit holds is within
// 1 % of what a kit keeps on the heap on BERT once it has planned zero-shot
// from the deployment and been Reset — an environment on the deployment's
// context, its solver's tables built, and a clone of the policy with its
// head and zero-shot scratch sized — so the byte bound on a policy's
// deployments counts the kits they own.
func TestKitBytesEstimate(t *testing.T) {
	g, pkg := workload.BERT(), mcm.Edge36()
	policy := rl.NewPolicy(rl.QuickConfig(pkg.Chips), rand.New(rand.NewSource(1)))
	model := costmodel.New(pkg)
	base := model.Assess(g, search.GreedyPackage(g, pkg)).Throughput // the graph's memoized layout too
	dep := rl.NewDeployment(policy.Clone(), rl.NewGraphContextForPackage(g, pkg))
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	withWorkers(1, func() {
		before := live()
		pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		env, clone := rl.NewEnv(dep.Ctx, pr, model, base), policy.Clone()
		env.UseSampleMode = true
		if err := dep.ZeroShot(context.Background(), clone, env, 16, rand.New(rand.NewSource(2))); err != nil {
			t.Fatal(err)
		}
		env.Reset()
		kept := live() - before
		runtime.KeepAlive(policy) // alive before, so that its bytes do not leave the count
		runtime.KeepAlive(env)
		runtime.KeepAlive(clone)
		if est := uint64(dep.KitBytes()); est < kept*99/100 || est > kept*101/100 {
			t.Errorf("a BERT kit estimates %d bytes, it keeps %d", est, kept)
		}
	})
}
