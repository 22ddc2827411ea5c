package rl_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/nn"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
	"mcmpart/internal/workload"
)

// Training goldens: SHA-256 over every float bit of the weights after two
// PPO iterations, so any change to accumulation order anywhere in
// mat/nn/gnn/rl — or an activation record that outlives the weights it was
// computed from — moves them. They are not regenerated to make a change
// pass. They were regenerated once, on the commit after 8102d27, when the
// encoder backward moved from once per transition to once per graph per
// minibatch: that sums the encoder's and fc1's embedding-row gradients over
// a minibatch's transitions before the product, a different rounding of the
// same sum. TestTrainingMatchesPerTransitionBackward pins the training they
// replaced to within rounding.
const (
	goldenBERT     = "a1945a1328d081f99f571e5bda72d13c20b86dbdd722b96a43744b161f019e77"
	goldenMultiEnv = "0db11cdd0f83d5f72befd5a9ac9be70372874a0a00a46167c0d053ede224e090"
)

// snapshotHash is SHA-256 over the snapshot's parameters in name order:
// name, length, then the IEEE-754 bits of every value.
func snapshotHash(s nn.Snapshot) string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var word [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(word[:], uint64(len(s[name])))
		h.Write(word[:])
		for _, v := range s[name] {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenEnv builds the environment MethodRL trains on: package-aware
// context and solver with a replica factory, cost-model rewards over the
// greedy baseline.
func goldenEnv(t testing.TB, g *graph.Graph, pkg *mcm.Package) *rl.Env {
	t.Helper()
	newPart := func() (cpsolver.Partitioner, error) { return cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{}) }
	pr, err := newPart()
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.New(pkg)
	env := rl.NewEnv(rl.NewGraphContextForPackage(g, pkg), pr, model, model.Assess(g, search.GreedyPackage(g, pkg)).Throughput)
	env.PartFactory = newPart
	return env
}

// trainTwice returns a fresh policy of shape pcfg after two PPO iterations
// over envs.
func trainTwice(pcfg rl.Config, envs []*rl.Env, workers int) *rl.Policy {
	rng := rand.New(rand.NewSource(11))
	policy := rl.NewPolicy(pcfg, rng)
	trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
	withWorkers(workers, func() {
		trainer.Iterate(envs)
		trainer.Iterate(envs)
	})
	return policy
}

// TestTrainingGoldenBERT pins two PPO iterations on the paper's headline
// case (BERT on edge36, the bert-rl benchmark workload's shape) at one and
// two rollout workers.
func TestTrainingGoldenBERT(t *testing.T) {
	if testing.Short() {
		t.Skip("two BERT-sized PPO iterations per worker count")
	}
	pkg := mcm.Edge36()
	bert := workload.BERT()
	for _, workers := range []int{1, 2} {
		policy := trainTwice(rl.QuickConfig(pkg.Chips), []*rl.Env{goldenEnv(t, bert, pkg)}, workers)
		if got := snapshotHash(policy.Snapshot()); got != goldenBERT {
			t.Errorf("workers=%d: snapshot hash %s, want %s", workers, got, goldenBERT)
		}
	}
}

// TestTrainingMatchesPerTransitionBackward runs TestTrainingGoldenBERT's
// two iterations against the weights and best-so-far History they ended
// with while the encoder backward ran once per transition (commit 8102d27,
// testdata/bert_two_iterations_per_transition.json, 9221 weights): every
// weight within 1e-12 and the History identical, so moving that backward
// to once per graph per minibatch changed the training by rounding alone.
func TestTrainingMatchesPerTransitionBackward(t *testing.T) {
	if testing.Short() {
		t.Skip("two BERT-sized PPO iterations")
	}
	data, err := os.ReadFile("testdata/bert_two_iterations_per_transition.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Snapshot nn.Snapshot `json:"snapshot"`
		History  []float64   `json:"history"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	pkg := mcm.Edge36()
	env := goldenEnv(t, workload.BERT(), pkg)
	got := trainTwice(rl.QuickConfig(pkg.Chips), []*rl.Env{env}, 1).Snapshot()
	if len(got) != len(want.Snapshot) {
		t.Fatalf("%d parameters, snapshot has %d", len(got), len(want.Snapshot))
	}
	var worst float64
	weights := 0
	for name, w := range want.Snapshot {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %d weights, snapshot has %d", name, len(g), len(w))
		}
		for i := range w {
			worst = max(worst, math.Abs(g[i]-w[i]))
		}
		weights += len(w)
	}
	if weights != 9221 || !(worst <= 1e-12) {
		t.Fatalf("max |Δw| = %.3g over %d weights, want <= 1e-12 over 9221", worst, weights)
	}
	t.Logf("max |Δw| = %.3g over %d weights", worst, weights)
	if len(env.History) != len(want.History) {
		t.Fatalf("History has %d entries, snapshot %d", len(env.History), len(want.History))
	}
	for i, h := range want.History {
		if math.Float64bits(env.History[i]) != math.Float64bits(h) {
			t.Fatalf("History[%d] = %v, snapshot %v", i, env.History[i], h)
		}
	}
}

// TestTrainingGoldenMultiEnv pins the Pretrain shape: episodes round-robin
// over three graphs of different node counts, so each minibatch shuffles
// transitions of several graphs together and every graph needs its own
// activation record. The heterogeneous package widens the policy head with
// the chip-capacity columns, so that input layout is pinned too.
func TestTrainingGoldenMultiEnv(t *testing.T) {
	pkg := mcm.Het4()
	pcfg := rl.QuickConfig(pkg.Chips)
	pcfg.ChipFeatures = true
	graphs := []*graph.Graph{
		workload.MLP(workload.MLPConfig{Name: "g0", Layers: 8, Input: 256, Hidden: 512, Output: 128, Batch: 16}),
		workload.ResidualCNN(workload.CNNConfig{Name: "g1", InputSize: 32, Channels: 16, Stages: 2, BlocksPerStage: 2, Classes: 10}),
		workload.UnrolledLSTM(workload.RNNConfig{Name: "g2", Steps: 5, Input: 128, Hidden: 256, Batch: 8}),
	}
	for _, workers := range []int{1, 2} {
		envs := make([]*rl.Env, len(graphs))
		nodes := make(map[int]bool)
		for i, g := range graphs {
			envs[i] = goldenEnv(t, g, pkg)
			nodes[g.NumNodes()] = true
		}
		if len(nodes) != len(graphs) {
			t.Fatalf("graphs must differ in node count, got %v", nodes)
		}
		if got := snapshotHash(trainTwice(pcfg, envs, workers).Snapshot()); got != goldenMultiEnv {
			t.Errorf("workers=%d: snapshot hash %s, want %s", workers, got, goldenMultiEnv)
		}
	}
}

// BenchmarkIterateBERT times one PPO iteration at the bert-rl workload's
// shape (BERT on edge36, quick network, 8 rollouts x 4 epochs): half of one
// RL plan at sample budget 32.
func BenchmarkIterateBERT(b *testing.B) {
	pkg := mcm.Edge36()
	envs := []*rl.Env{goldenEnv(b, workload.BERT(), pkg)}
	rng := rand.New(rand.NewSource(11))
	trainer := rl.NewTrainer(rl.NewPolicy(rl.QuickConfig(pkg.Chips), rng), rl.QuickPPOConfig(), rng)
	trainer.Iterate(envs) // size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainer.Iterate(envs)
	}
}

// zeroShotPlan returns what one serve-zeroshot op plans, on env: a clone of
// policy and 16 SAMPLE-mode samples.
func zeroShotPlan(tb testing.TB, policy *rl.Policy, env *rl.Env) func() {
	env.UseSampleMode = true
	return func() {
		env.Reset()
		if err := rl.ZeroShot(context.Background(), policy.Clone(), env, 16, rand.New(rand.NewSource(2))); err != nil {
			tb.Fatal(err)
		}
	}
}

// deployedPlan is zeroShotPlan from a Deployment of env's graph under
// policy's weights, every plan on one clone of policy as on one planner kit:
// what a repeat graph's serve-zeroshot op plans.
func deployedPlan(tb testing.TB, policy *rl.Policy, env *rl.Env) func() {
	env.UseSampleMode = true
	clone := policy.Clone()
	dep := rl.NewDeployment(clone, env.Ctx)
	return func() {
		env.Reset()
		if err := dep.ZeroShot(context.Background(), clone, env, 16, rand.New(rand.NewSource(2))); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkZeroShotBERT times one zero-shot plan on BERT/edge36.
func BenchmarkZeroShotBERT(b *testing.B) {
	pkg := mcm.Edge36()
	plan := zeroShotPlan(b, rl.NewPolicy(rl.QuickConfig(pkg.Chips), rand.New(rand.NewSource(1))), goldenEnv(b, workload.BERT(), pkg))
	plan() // the graph's and the solver's lazily built state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan()
	}
}

// heapBytes returns what fn allocates on the heap, in allocator size
// classes.
func heapBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBERTHeapBytes holds the heap bytes of one zero-shot plan (what
// BenchmarkZeroShotBERT times) and of one steady-state PPO iteration on
// BERT/edge36 at their figures from when the policy head built its whole
// input matrix and kept its logits: an Encoding's embedding product and
// start-state distribution are paid for by those two. It holds a zero-shot
// plan from a Deployment on a clone an earlier plan sized — what a repeat
// graph's plan costs a deployed policy: the samples, with no encoding,
// start distribution, environment, clone or head scratch — at the 360 496
// bytes measured when the planner began pooling clones with environments
// (3 011 920 while every plan cloned the policy and sized its scratch). One
// worker, so that no kernel or rollout fan-out allocates of its own.
func TestBERTHeapBytes(t *testing.T) {
	const zeroShotCeiling, deployedCeiling, iterateCeiling = 7270416, 362000, 808960
	g, pkg := workload.BERT(), mcm.Edge36()
	pcfg := rl.QuickConfig(pkg.Chips)
	withWorkers(1, func() {
		policy := rl.NewPolicy(pcfg, rand.New(rand.NewSource(1)))
		plan := zeroShotPlan(t, policy, goldenEnv(t, g, pkg))
		plan() // the graph's and the solver's lazily built state
		if got := heapBytes(plan); got > zeroShotCeiling {
			t.Errorf("one zero-shot plan allocates %d bytes, ceiling %d", got, zeroShotCeiling)
		}

		deployed := deployedPlan(t, policy, goldenEnv(t, g, pkg))
		deployed()
		got := heapBytes(deployed)
		t.Logf("a deployed zero-shot plan allocates %d bytes", got)
		if got > deployedCeiling {
			t.Errorf("a zero-shot plan from a deployment allocates %d bytes, ceiling %d: did per-graph work move back into the plan?", got, deployedCeiling)
		}

		rng := rand.New(rand.NewSource(11))
		envs := []*rl.Env{goldenEnv(t, g, pkg)}
		trainer := rl.NewTrainer(rl.NewPolicy(pcfg, rng), rl.QuickPPOConfig(), rng)
		trainer.Iterate(envs) // size the scratch
		if got := heapBytes(func() { trainer.Iterate(envs) }); got > iterateCeiling {
			t.Errorf("one Iterate allocates %d bytes, ceiling %d", got, iterateCeiling)
		}
	})
}

// TestIterateBERTTwoWorkerAllocs holds one steady-state PPO iteration on
// BERT/edge36 at two workers to the 1866 allocations it made before the
// policy head ran as row-block stages. At two workers every head stage and
// kernel of an update fans out, three times per transition — the policy
// head's forward, fc2's weight gradient and the head half's per-node stage —
// so a fourth fan-out, or a stage operand that escapes to the heap on every
// call, lands here; TestIterateAllocs runs serially on a graph too small to
// split.
func TestIterateBERTTwoWorkerAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("BERT-sized PPO iterations; the count is the program's only without -race")
	}
	const ceiling = 1866
	pkg := mcm.Edge36()
	envs := []*rl.Env{goldenEnv(t, workload.BERT(), pkg)}
	rng := rand.New(rand.NewSource(11))
	trainer := rl.NewTrainer(rl.NewPolicy(rl.QuickConfig(pkg.Chips), rng), rl.QuickPPOConfig(), rng)
	withWorkers(2, func() {
		trainer.Iterate(envs) // size the scratch
		if allocs := testing.AllocsPerRun(2, func() { trainer.Iterate(envs) }); allocs > ceiling {
			t.Fatalf("Iterate at two workers allocates %v times in steady state, ceiling %d", allocs, ceiling)
		}
	})
}

// TestZeroShotPerSampleAllocs bounds what one more SAMPLE-mode sample costs
// a deployment on BERT/edge36: the partition, the cost-model verdict and the
// trajectory's growth — 5.2 measured (6.2 while each sample drew its raw
// actions into a fresh slice; the loop now owns one). It was 93
// while every sample built a fresh N x C matrix and its row headers for the
// solver (0.67 MB) and the solver's Validate built its chip tables; the loop
// now owns one matrix and overwrites it, and the tables are fixed-size.
func TestZeroShotPerSampleAllocs(t *testing.T) {
	g, pkg := workload.BERT(), mcm.Edge36()
	policy := rl.NewPolicy(rl.QuickConfig(pkg.Chips), rand.New(rand.NewSource(1)))
	run := func(budget int) float64 {
		return testing.AllocsPerRun(2, func() {
			env := goldenEnv(t, g, pkg)
			env.UseSampleMode = true
			if err := rl.ZeroShot(context.Background(), policy, env, budget, rand.New(rand.NewSource(2))); err != nil {
				t.Fatal(err)
			}
		})
	}
	const extra, ceiling = 16, 24
	if perSample := (run(8+extra) - run(8)) / extra; perSample > ceiling {
		t.Fatalf("ZeroShot allocates %.1f times per additional sample, ceiling %d", perSample, ceiling)
	}
}
