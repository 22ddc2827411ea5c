package rl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/mat"
	"mcmpart/internal/mcm"
	"mcmpart/internal/nn"
	"mcmpart/internal/partition"
	"mcmpart/internal/workload"
)

func testEnv(t *testing.T, chips int) *Env {
	t.Helper()
	g := workload.MLP(workload.MLPConfig{Name: "m", Layers: 6, Input: 256, Hidden: 512, Output: 64, Batch: 16})
	pkg := mcm.Dev4()
	pkg.Chips = chips
	pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := eval.Func(func(_ *graph.Graph, p partition.Partition) eval.Verdict {
		// Reward balance directly: throughput proxy = 1/imbalance.
		return eval.Verdict{Throughput: 1 / p.Imbalance(g), Valid: true}
	})
	base := ev.Assess(g, make(partition.Partition, g.NumNodes())).Throughput
	ctx := NewGraphContext(g)
	return NewEnv(ctx, pr, ev, base/2) // baseline below single-chip
}

func TestPolicyForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := QuickConfig(4)
	p := NewPolicy(cfg, rng)
	env := testEnv(t, 4)
	f := p.Forward(env.Ctx, unassigned(env.Ctx.G.NumNodes()))
	n := env.Ctx.G.NumNodes()
	if f.Probs.Rows != n || f.Probs.Cols != 4 {
		t.Fatalf("probs %dx%d, want %dx4", f.Probs.Rows, f.Probs.Cols, n)
	}
	for i := 0; i < n; i++ {
		var sum float64
		for _, v := range f.Probs.Row(i) {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("bad prob %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	if math.IsNaN(f.Value) {
		t.Fatal("NaN value")
	}
}

func TestPolicyConditionsOnPrev(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPolicy(QuickConfig(4), rng)
	env := testEnv(t, 4)
	n := env.Ctx.G.NumNodes()
	// A Forward lives in the policy's scratch: copy out what must outlive
	// the next evaluation.
	p0 := p.Forward(env.Ctx, unassigned(n)).Probs.Clone()
	prev := make([]int, n)
	for i := range prev {
		prev[i] = i % 4
	}
	f1 := p.Forward(env.Ctx, prev)
	diff := 0.0
	for i := range p0.Data {
		diff += math.Abs(p0.Data[i] - f1.Probs.Data[i])
	}
	if diff < 1e-9 {
		t.Fatal("policy output should depend on the previous assignment")
	}
}

// logitsOf recomputes the logits of f from its hidden layer: Heads keeps
// none, writing the log-probabilities over them.
func logitsOf(p *Policy, f *Forward) *mat.Dense {
	logits := mat.New(f.a1.Rows, p.Cfg.Chips)
	p.fc2.Forward(logits, f.a1)
	return logits
}

// TestPolicyGradientCheck validates Backward end-to-end (SAGE + heads)
// against finite differences on a surrogate loss sum(logits^2)/2 + value^2/2.
func TestPolicyGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.New("tiny")
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, OutputBytes: 8})
		if i > 0 {
			g.MustAddEdge(i-1, i, 8)
		}
	}
	ctx := NewGraphContext(g)
	p := NewPolicy(Config{Chips: 3, Hidden: 5, SAGELayers: 2, Iterations: 1}, rng)
	prev := []int{0, 1, -1, 2}

	loss := func() float64 {
		f := p.Forward(ctx, prev)
		var s float64
		for _, v := range logitsOf(p, f).Data {
			s += v * v
		}
		return 0.5*s + 0.5*f.Value*f.Value
	}
	f := p.Forward(ctx, prev)
	dLogits := logitsOf(p, f)
	nn.ZeroGrads(p.Params())
	p.Backward(f, dLogits, f.Value)

	const eps = 1e-6
	for _, param := range p.Params() {
		for i := 0; i < len(param.Value.Data); i += 1 + len(param.Value.Data)/7 {
			orig := param.Value.Data[i]
			param.Value.Data[i] = orig + eps
			up := loss()
			param.Value.Data[i] = orig - eps
			down := loss()
			param.Value.Data[i] = orig
			fd := (up - down) / (2 * eps)
			got := param.Grad.Data[i]
			if math.Abs(fd-got) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: finite diff %v vs analytic %v", param.Name, i, fd, got)
			}
		}
	}
}

// TestForwardSeesEncoderWeightChange is the check an encoder cache hidden
// inside the policy fails: nudge one GraphSAGE weight between two Forward
// calls and the second must move by what Backward predicted at the first.
// Forward re-encodes on every call; only an explicit Encoding, whose scope
// its caller controls, is ever reused.
func TestForwardSeesEncoderWeightChange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.New("tiny")
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e6, OutputBytes: 8})
		if i > 0 {
			g.MustAddEdge(i-1, i, 8)
		}
	}
	ctx := NewGraphContext(g)
	p := NewPolicy(Config{Chips: 3, Hidden: 5, SAGELayers: 2, Iterations: 1}, rng)
	prev := []int{0, 1, -1, 2, 0}
	loss := func(f *Forward) float64 {
		var s float64
		for _, v := range logitsOf(p, f).Data {
			s += v * v
		}
		return 0.5*s + 0.5*f.Value*f.Value
	}
	f := p.Forward(ctx, prev)
	base := loss(f)
	nn.ZeroGrads(p.Params())
	p.Backward(f, logitsOf(p, f), f.Value)

	const eps = 1e-6
	checked := 0
	for _, param := range p.Params() {
		if !strings.HasPrefix(param.Name, "sage") {
			continue
		}
		for i, grad := range param.Grad.Data {
			if math.Abs(grad) < 1e-3 {
				continue // too flat for a one-sided difference to resolve
			}
			orig := param.Value.Data[i]
			param.Value.Data[i] = orig + eps
			moved := loss(p.Forward(ctx, prev))
			param.Value.Data[i] = orig
			if moved == base {
				t.Fatalf("%s[%d]: Forward did not see the weight change", param.Name, i)
			}
			if fd := (moved - base) / eps; math.Abs(fd-grad) > 1e-3*(1+math.Abs(grad)) {
				t.Fatalf("%s[%d]: loss moved by %v per unit, Backward predicted %v", param.Name, i, fd, grad)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no encoder weight had a usable gradient")
	}

	// The start state's distribution is kept in the Encoding: a weight step
	// followed by a re-Encode must move it — here through fc2, which Encode
	// itself never reads — to what a fresh record computes.
	start := unassigned(len(prev))
	enc := p.Encode(new(Encoding), ctx)
	before := p.Heads(enc, start).Probs.Clone()
	p.fc2.W.Value.Data[0] += 0.5
	p.Encode(enc, ctx)
	moved := p.Heads(enc, start).Probs.Clone()
	requireBits(t, "re-encoded start state", moved.Data, p.Heads(p.Encode(new(Encoding), ctx), start).Probs.Data)
	for i := range before.Data {
		if moved.Data[i] != before.Data[i] {
			return
		}
	}
	t.Fatal("the start state's distribution survived a weight step and a re-Encode")
}

// TestEncodeRefusesPendingHeadGradients: re-encoding a record that still
// holds head gradients its encoder backward has not consumed would drop
// those transitions' encoder gradients, so Encode panics on it; once the
// encoder half has run, the record encodes again.
func TestEncodeRefusesPendingHeadGradients(t *testing.T) {
	env := testEnv(t, 4)
	p := NewPolicy(QuickConfig(4), rand.New(rand.NewSource(1)))
	prev := unassigned(env.Ctx.G.NumNodes())
	enc := p.Encode(new(Encoding), env.Ctx)
	p.backwardHeads(p.Heads(enc, prev), mat.New(len(prev), 4), nil, 1)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("Encode over a record with pending head gradients did not panic")
			} else if !strings.Contains(fmt.Sprint(r), "1 transitions") {
				t.Fatalf("panic %q does not name the pending transitions", r)
			}
		}()
		p.Encode(enc, env.Ctx)
	}()
	p.backwardEncoder(enc)
	p.Encode(enc, env.Ctx)
}

func TestSampleActionsAndJointLogProb(t *testing.T) {
	probs := mat.FromSlice(2, 2, []float64{1, 0, 0, 1})
	rng := rand.New(rand.NewSource(4))
	y := SampleActions(probs, rng)
	if y[0] != 0 || y[1] != 1 {
		t.Fatalf("deterministic rows sampled wrong: %v", y)
	}
	lp := mat.FromSlice(2, 2, []float64{math.Log(0.5), math.Log(0.5), math.Log(0.25), math.Log(0.75)})
	got := JointLogProb(lp, []int{0, 1})
	want := math.Log(0.5) + math.Log(0.75)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("JointLogProb = %v, want %v", got, want)
	}
}

func TestEnvTracksBest(t *testing.T) {
	env := testEnv(t, 4)
	rng := rand.New(rand.NewSource(5))
	n := env.Ctx.G.NumNodes()
	for i := 0; i < 5; i++ {
		y := make([]int, n)
		for j := range y {
			y[j] = rng.Intn(4)
		}
		env.StepActions(y, rng)
	}
	if env.Samples != 5 || len(env.History) != 5 {
		t.Fatalf("samples=%d history=%d", env.Samples, len(env.History))
	}
	if env.Best == nil || env.BestThroughput <= 0 {
		t.Fatal("env should have found a valid best partition")
	}
	// History is monotone nondecreasing (best-so-far).
	for i := 1; i < len(env.History); i++ {
		if env.History[i] < env.History[i-1] {
			t.Fatalf("history not monotone: %v", env.History)
		}
	}
	env.Reset()
	if env.Samples != 0 || env.Best != nil || env.History != nil {
		t.Fatal("Reset incomplete")
	}
}

func TestEnvNoSolverRejectsInvalid(t *testing.T) {
	env := testEnv(t, 4)
	env.NoSolver = true
	rng := rand.New(rand.NewSource(6))
	n := env.Ctx.G.NumNodes()
	// A deliberately invalid assignment (backwards dataflow).
	y := make([]int, n)
	y[0] = 3
	r := env.StepActions(y, rng)
	if r != 0 {
		t.Fatalf("invalid raw action should earn 0 reward, got %v", r)
	}
	if env.ValidSamples != 0 {
		t.Fatal("invalid sample counted as valid")
	}
}

// TestPPOImprovesOverRandom is the core learning test: after a few PPO
// iterations on a small balance-rewarded environment, the policy's average
// reward should exceed the untrained policy's.
func TestPPOImprovesOverRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	env := testEnv(t, 4)
	policy := NewPolicy(Config{Chips: 4, Hidden: 16, SAGELayers: 2, Iterations: 2}, rng)
	cfg := QuickPPOConfig()
	cfg.Rollouts = 6
	cfg.Epochs = 3
	trainer := NewTrainer(policy, cfg, rng)
	first := trainer.Iterate([]*Env{env})
	var last IterationStats
	for i := 0; i < 12; i++ {
		last = trainer.Iterate([]*Env{env})
	}
	if !(last.MeanReward > first.MeanReward) {
		t.Fatalf("PPO did not improve: first %.4f, last %.4f", first.MeanReward, last.MeanReward)
	}
	if env.ValidSamples == 0 {
		t.Fatal("no valid samples seen during training")
	}
}

func TestSnapshotRestoreChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewPolicy(QuickConfig(4), rng)
	env := testEnv(t, 4)
	prev := unassigned(env.Ctx.G.NumNodes())
	before := p.Forward(env.Ctx, prev).Probs.Clone()
	snap := p.Snapshot()
	// Perturb and restore.
	for _, param := range p.Params() {
		param.Value.Scale(1.5)
	}
	if err := p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	after := p.Forward(env.Ctx, prev).Probs
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("restore did not reproduce the forward pass")
		}
	}
}

func TestTrainUntilRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	env := testEnv(t, 4)
	policy := NewPolicy(Config{Chips: 4, Hidden: 8, SAGELayers: 1, Iterations: 1}, rng)
	cfg := QuickPPOConfig()
	cfg.Rollouts = 4
	cfg.Epochs = 1
	trainer := NewTrainer(policy, cfg, rng)
	if _, err := trainer.TrainUntil(context.Background(), []*Env{env}, 10); err != nil {
		t.Fatal(err)
	}
	if env.Samples < 10 {
		t.Fatalf("budget not reached: %d", env.Samples)
	}
	if env.Samples > 10+cfg.Rollouts*policy.Cfg.Iterations {
		t.Fatalf("overshot budget excessively: %d", env.Samples)
	}
}

// headStageBench returns a policy of the bert-rl workload's shape (BERT on
// edge36, quick network), BERT encoded under it, and a random assignment:
// the state a PPO update's t=1 transition evaluates.
func headStageBench() (*Policy, *Encoding, []int) {
	pkg := mcm.Edge36()
	ctx := NewGraphContextForPackage(workload.BERT(), pkg)
	rng := rand.New(rand.NewSource(1))
	p := NewPolicy(QuickConfig(pkg.Chips), rng)
	prev := make([]int, ctx.G.NumNodes())
	for i := range prev {
		prev[i] = rng.Intn(pkg.Chips)
	}
	return p, p.Encode(new(Encoding), ctx), prev
}

// BenchmarkHeadsBERT times the policy head's forward stage on one
// transition at bert-rl's shape, with the value head: one Heads call on a
// state the start-state memo does not cover.
func BenchmarkHeadsBERT(b *testing.B) {
	p, enc, prev := headStageBench()
	p.Heads(enc, prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Heads(enc, prev)
	}
}

// BenchmarkBackwardHeadsBERT times one transition's loss-gradient stage and
// the rest of the head half of its backward pass at bert-rl's shape: the
// PPO logit gradient, fc2's masked input gradient, and the node-ascending
// weight and bias gradients, as a minibatch's update runs them.
func BenchmarkBackwardHeadsBERT(b *testing.B) {
	p, enc, prev := headStageBench()
	f := p.Heads(enc, prev)
	loss := &logitGrad{action: prev, dLogp: -0.7, beta: DefaultPPOConfig().EntropyCoef / float64(len(prev)), scale: 1.0 / 16}
	dLogits := mat.New(len(prev), p.Cfg.Chips)
	p.backwardHeads(f, dLogits, loss, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.backwardHeads(f, dLogits, loss, 0.1)
	}
}
