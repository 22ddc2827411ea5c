package mcmpart_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcmpart"
	"mcmpart/internal/graph"
)

// pretrainedPlanner builds a dev8 planner pre-trained on a small corpus
// slice — the shared fixture of the transfer tests (seconds, not minutes).
func pretrainedPlanner(t *testing.T) (*mcmpart.Planner, []*mcmpart.Graph) {
	t.Helper()
	pl, err := mcmpart.NewPlanner(mcmpart.Dev8())
	if err != nil {
		t.Fatal(err)
	}
	corpus := mcmpart.CorpusGraphs(1)
	if _, err := pl.Pretrain(context.Background(), corpus[:10], mcmpart.PretrainOptions{
		TotalSamples:     400,
		Checkpoints:      5,
		ValidationGraphs: 2,
	}); err != nil {
		t.Fatal(err)
	}
	return pl, corpus
}

// TestTransferZeroShotBeatsScratch pins the acceptance criterion — and the
// paper's headline claim (Sec. 5.2/5.3) — deterministically: after
// pre-training on a corpus slice, zero-shot deployment on a held-out graph
// reaches the 1.05x improvement threshold in measurably fewer samples than
// training RL from scratch under the same budget. On this fixture scratch
// RL does not reach the threshold at all, so the margin is structural, not
// a lucky seed.
func TestTransferZeroShotBeatsScratch(t *testing.T) {
	pl, corpus := pretrainedPlanner(t)
	held := corpus[84] // mlp-84: never seen during pre-training
	if !strings.HasPrefix(held.Name(), "mlp") {
		t.Fatalf("held-out graph is %s, fixture expects an MLP", held.Name())
	}
	const budget, threshold = 80, 1.05

	plan := func(m mcmpart.Method) *mcmpart.Result {
		res, err := pl.Plan(context.Background(), held, mcmpart.PlanOptions{
			Method: m, SampleBudget: budget, Seed: 7,
		})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		return res
	}
	scratch := plan(mcmpart.MethodRL)
	zeroShot := plan(mcmpart.MethodZeroShot)

	zsSamples, zsReached := zeroShot.SamplesToImprovement(threshold)
	if !zsReached {
		t.Fatalf("zero-shot never reached %.2fx (best %.3fx)", threshold, zeroShot.Improvement)
	}
	scratchSamples, scratchReached := scratch.SamplesToImprovement(threshold)
	if scratchReached && scratchSamples <= zsSamples {
		t.Fatalf("transfer gave no sample advantage: scratch %d <= zero-shot %d samples to %.2fx",
			scratchSamples, zsSamples, threshold)
	}
	if zsSamples > 10 {
		t.Fatalf("zero-shot took %d samples to %.2fx; the pre-trained policy should land almost immediately (<= 10)",
			zsSamples, threshold)
	}
	// Determinism: the same plan twice is bit-identical.
	again := plan(mcmpart.MethodZeroShot)
	if !reflect.DeepEqual(zeroShot.History, again.History) {
		t.Fatal("zero-shot plan is not deterministic for a fixed seed")
	}
}

// TestPolicyArtifactRoundTrip checks pretrain -> save -> load into a fresh
// planner -> zero-shot produces exactly the plan the original planner
// produces.
func TestPolicyArtifactRoundTrip(t *testing.T) {
	pl, corpus := pretrainedPlanner(t)
	held := corpus[84]
	path := filepath.Join(t.TempDir(), "dev8.policy.json")
	if err := pl.SavePolicy(path); err != nil {
		t.Fatal(err)
	}

	fresh, err := mcmpart.NewPlanner(mcmpart.Dev8())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.HasPolicy() {
		t.Fatal("fresh planner should have no policy")
	}
	if err := fresh.LoadPolicy(path); err != nil {
		t.Fatal(err)
	}
	if !fresh.HasPolicy() {
		t.Fatal("loaded planner should report a policy")
	}
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodZeroShot, SampleBudget: 40, Seed: 3}
	want, err := pl.Plan(context.Background(), held, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Plan(context.Background(), held, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Partition, got.Partition) || !reflect.DeepEqual(want.History, got.History) {
		t.Fatal("plan through the loaded artifact differs from the original planner's plan")
	}
}

// TestPolicyArtifactRejectsWrongPackage pins the fingerprint gate: a policy
// pre-trained for one package must not load into a planner for another.
func TestPolicyArtifactRejectsWrongPackage(t *testing.T) {
	pl, _ := pretrainedPlanner(t) // dev8
	path := filepath.Join(t.TempDir(), "dev8.policy.json")
	if err := pl.SavePolicy(path); err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []*mcmpart.Package{mcmpart.Dev4(), mcmpart.Edge36(), mcmpart.Mesh16(), mcmpart.Dev8Bi()} {
		other, err := mcmpart.NewPlanner(pkg)
		if err != nil {
			t.Fatal(err)
		}
		err = other.LoadPolicy(path)
		if err == nil {
			t.Fatalf("%s: loading a dev8 policy should fail", pkg.Name)
		}
		if !strings.Contains(err.Error(), "dev8") || !strings.Contains(err.Error(), pkg.Name) {
			t.Fatalf("%s: error should name both packages: %v", pkg.Name, err)
		}
		if other.HasPolicy() {
			t.Fatalf("%s: rejected load must not install a policy", pkg.Name)
		}
	}
	// Same preset name but different hardware parameters: still rejected
	// (the fingerprint covers the full descriptor, not the name).
	tweaked := mcmpart.Dev8()
	tweaked.SRAMBytes *= 2
	other, err := mcmpart.NewPlanner(tweaked)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadPolicy(path); err == nil {
		t.Fatal("loading into a same-name, different-SRAM package should fail")
	}
}

// TestPolicyArtifactRejectsCorrupt covers the untrusted-file hardening:
// unreadable, non-JSON, and truncated artifacts all fail with descriptive
// errors, never panics or silent zero-weight policies.
func TestPolicyArtifactRejectsCorrupt(t *testing.T) {
	pl, err := mcmpart.NewPlanner(mcmpart.Dev8())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := pl.LoadPolicy(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing artifact should fail")
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := pl.LoadPolicy(garbage); err == nil {
		t.Fatal("non-JSON artifact should fail")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := pl.LoadPolicy(empty); err == nil {
		t.Fatal("empty artifact should fail (version gate)")
	}
	if pl.HasPolicy() {
		t.Fatal("no failed load may install a policy")
	}
}

// TestPlanMethodsRequirePolicy pins the error contract of the pre-trained
// methods on a policy-less planner.
func TestPlanMethodsRequirePolicy(t *testing.T) {
	pl, err := mcmpart.NewPlanner(mcmpart.Dev4())
	if err != nil {
		t.Fatal(err)
	}
	g := smallGraph(t)
	for _, m := range []mcmpart.Method{mcmpart.MethodZeroShot, mcmpart.MethodFineTune} {
		_, err := pl.Plan(context.Background(), g, mcmpart.PlanOptions{Method: m, SampleBudget: 10})
		if err == nil || !strings.Contains(err.Error(), "Pretrain") {
			t.Fatalf("%s without a policy: want a pre-train hint, got %v", m, err)
		}
	}
}

// TestPlanRefusesWhatValidateRefuses: Graph.Validate is the one validator,
// and Planner.Plan and Service.Submit begin with it, so a graph built through
// the public NewGraph/AddNode/AddEdge API gets the same refusals as one that
// arrived over the wire. An operator kind past the table used to pass — only
// UnmarshalJSON checked it — and set a cost column of the feature matrix
// instead of a one-hot one (or indexed past the row); a duplicate edge is
// now reported here rather than by AddEdge.
func TestPlanRefusesWhatValidateRefuses(t *testing.T) {
	badOp := smallGraph(t)
	badOp.AddNode(mcmpart.Node{Name: "mystery", Op: mcmpart.OpKind(graph.NumOpKinds + 1), FLOPs: 1})
	twice := smallGraph(t)
	twice.MustAddEdge(0, 1, 8)

	pl, err := mcmpart.NewPlanner(mcmpart.Dev4())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := mcmpart.NewService(mcmpart.Dev4(), mcmpart.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, tc := range []struct {
		g     *mcmpart.Graph
		check func(error) bool
		want  string
	}{
		{badOp, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "node 12") && strings.Contains(err.Error(), `"mystery"`) && strings.Contains(err.Error(), "unknown op kind 17")
		}, `an error naming node 12 ("mystery") and its op kind 17`},
		{twice, func(err error) bool { return errors.Is(err, graph.ErrDuplicateEdge) }, "ErrDuplicateEdge"},
	} {
		if err := tc.g.Validate(); !tc.check(err) {
			t.Errorf("Validate = %v, want %s", err, tc.want)
		}
		// RL is the method that builds the feature matrix.
		opts := mcmpart.PlanOptions{Method: mcmpart.MethodRL, SampleBudget: 4}
		if res, err := pl.Plan(context.Background(), tc.g, opts); res != nil || !tc.check(err) {
			t.Errorf("Planner.Plan = %v, %v, want %s", res, err, tc.want)
		}
		if job, err := svc.Submit(context.Background(), mcmpart.PlanRequest{Graph: tc.g, Options: opts}); job != nil || !tc.check(err) {
			t.Errorf("Service.Submit = %v, %v, want %s", job, err, tc.want)
		}
	}
}

// TestPlanProgressStream checks the observability contract: one event per
// sample, samples strictly increasing from 1, best-so-far monotone, and the
// final event agreeing with the returned result.
func TestPlanProgressStream(t *testing.T) {
	pl, err := mcmpart.NewPlanner(mcmpart.Dev4())
	if err != nil {
		t.Fatal(err)
	}
	g := smallGraph(t)
	var events []mcmpart.ProgressEvent
	res, err := pl.Plan(context.Background(), g, mcmpart.PlanOptions{
		Method:       mcmpart.MethodRandom,
		SampleBudget: 25,
		Seed:         2,
		Progress:     func(ev mcmpart.ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Samples {
		t.Fatalf("%d progress events for %d samples", len(events), res.Samples)
	}
	for i, ev := range events {
		if ev.Samples != i+1 {
			t.Fatalf("event %d reports sample %d", i, ev.Samples)
		}
		if i > 0 && ev.BestImprovement < events[i-1].BestImprovement {
			t.Fatal("best-so-far regressed in the progress stream")
		}
	}
	last := events[len(events)-1]
	if last.BestImprovement != res.Improvement {
		t.Fatalf("final progress %.6f != result improvement %.6f", last.BestImprovement, res.Improvement)
	}
	if len(res.History) != res.Samples || res.History[len(res.History)-1] != res.Improvement {
		t.Fatal("Result.History must end at the final improvement")
	}
}

// TestPlannerAssess checks the unified rich-verdict surface over both
// evaluation environments.
func TestPlannerAssess(t *testing.T) {
	pl, err := mcmpart.NewPlanner(mcmpart.Dev4())
	if err != nil {
		t.Fatal(err)
	}
	g := smallGraph(t)
	res, err := pl.Plan(context.Background(), g, mcmpart.PlanOptions{Method: mcmpart.MethodGreedy})
	if err != nil {
		t.Fatal(err)
	}
	model := pl.Assess(g, res.Partition, mcmpart.PlanOptions{})
	if !model.Valid || model.Throughput <= 0 || model.FailReason != "" {
		t.Fatalf("cost-model verdict on greedy: %+v", model)
	}
	if model.Utilization != 0 {
		t.Fatal("the analytical model has no memory model; utilization must be 0")
	}
	sim := pl.Assess(g, res.Partition, mcmpart.PlanOptions{UseSimulator: true})
	if !sim.Valid || sim.Throughput <= 0 {
		t.Fatalf("simulator verdict on greedy: %+v", sim)
	}
	if sim.Utilization <= 0 || sim.Utilization > 1 {
		t.Fatalf("simulator utilization %v out of (0, 1]", sim.Utilization)
	}
	// An unroutable partition (backwards transfer on the uni-directional
	// ring) must fail with a reason in both environments.
	bad := res.Partition.Clone()
	bad[0] = 3
	for name, v := range map[string]mcmpart.Verdict{
		"model": pl.Assess(g, bad, mcmpart.PlanOptions{}),
		"sim":   pl.Assess(g, bad, mcmpart.PlanOptions{UseSimulator: true}),
	} {
		if v.Valid || v.FailReason == "" || v.Throughput != 0 {
			t.Fatalf("%s: backwards transfer verdict: %+v", name, v)
		}
	}
}

// TestPlanSAOnSimulatorAllocs is the bert-search-sim op of bench/ under an
// allocation ceiling: simulated annealing on the simulator, BERT on edge36,
// 64 samples. It allocated 296 697 times while every sample re-derived the
// graph's topological order (71 Kahn passes per plan), 30 299 once the
// graph memoized it, 668 while a sample allocated its partition, the
// scheduler's five vectors and the simulator's Result, 90 once a repeat plan
// ran on its graph's training kit and the simulator scored a sample in
// pooled memory (a partition per sample, a clone per improvement), and 9
// now that every sample is drawn into the kit's buffers: the Result, its
// copies of the best partition and the trajectory, and the greedy baseline.
// The ceiling is the guard against a per-sample allocation, a per-sample
// graph analysis, or a per-plan table coming back.
func TestPlanSAOnSimulatorAllocs(t *testing.T) {
	if mcmpart.RaceEnabled {
		t.Skip("under -race the simulator's pooled run memory is dropped at random")
	}
	pl, err := mcmpart.NewPlanner(mcmpart.Edge36())
	if err != nil {
		t.Fatal(err)
	}
	g := mcmpart.BERT()
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodSA, SampleBudget: 64, UseSimulator: true, Seed: 4}
	plan := func() {
		if _, err := pl.Plan(context.Background(), g, opts); err != nil {
			t.Fatal(err)
		}
	}
	plan()
	const ceiling = 20
	allocs := testing.AllocsPerRun(3, plan)
	t.Logf("%v allocations", allocs)
	if allocs > ceiling {
		t.Fatalf("Plan(sa, simulator, 64 samples) allocates %v times, ceiling %d", allocs, ceiling)
	}
}
