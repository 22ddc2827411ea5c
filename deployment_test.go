package mcmpart

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/parallel"
	"mcmpart/internal/rl"
)

// The deployments of an installed policy (deployment.go): a repeat graph's
// deployed-policy plan runs from the context, encoding and environment an
// earlier plan of a graph of its structure built under the same weights, and
// plans exactly what a cold plan does.

// resultBits renders every field of a result, floats by their bits.
func resultBits(r *Result) string {
	hist := make([]uint64, len(r.History))
	for i, h := range r.History {
		hist[i] = math.Float64bits(h)
	}
	return fmt.Sprintf("%v %x %x %d %x %v", r.Partition, math.Float64bits(r.Throughput), math.Float64bits(r.Improvement), r.Samples, hist, r.FailCounts)
}

// deployedPlanner returns an Edge36 planner with a fresh quick policy
// installed, and that policy.
func deployedPlanner(tb testing.TB) (*Planner, *rl.Policy) {
	tb.Helper()
	pl, err := NewPlanner(Edge36())
	if err != nil {
		tb.Fatal(err)
	}
	policy := rl.NewPolicy(pl.freshPolicyConfig(false), rand.New(rand.NewSource(1)))
	pl.installPolicy(policy, "")
	return pl, policy
}

// planReused is Plan, also reporting whether the plan reused a deployment
// or, for MethodRL, an idle training kit.
func planReused(tb testing.TB, pl *Planner, g *Graph, opts PlanOptions) (*Result, bool) {
	tb.Helper()
	opts, err := normalizeRequest(g, opts)
	if err != nil {
		tb.Fatal(err)
	}
	kits := pl.rlPlans[kitReused].Load()
	res, reused, err := pl.plan(context.Background(), g, opts, pl.snapshotPolicy())
	if err != nil {
		tb.Fatal(err)
	}
	if opts.Method == MethodRL {
		reused = pl.rlPlans[kitReused].Load() != kits
	}
	return res, reused
}

// coldPlan plans on a fresh install of policy and an empty training store:
// with no deployments and no training kits.
func coldPlan(tb testing.TB, pl *Planner, policy *rl.Policy, g *Graph, opts PlanOptions) *Result {
	tb.Helper()
	pl.installPolicy(policy, "")
	pl.training = newTrainingKits()
	res, reused := planReused(tb, pl, g, opts)
	if reused {
		tb.Fatal("a plan on a fresh install and an empty training store reused an entry")
	}
	return res
}

// TestDeployedPlansMatchColdPlans: zero-shot and fine-tune, on the cost
// model and the simulator, seeds 1-4, on BERT and a corpus graph, each
// planned cold (a fresh install) and then warm, on one planner that planned
// every earlier case — so every warm plan but each graph's first runs from
// its graph's deployment and on an environment earlier plans, of either
// method, left. Every Result must be float-bit identical.
func TestDeployedPlansMatchColdPlans(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() || raceEnabled {
		seeds = seeds[:1]
	}
	warm, policy := deployedPlanner(t)
	cold, _ := deployedPlanner(t)
	reuses := 0
	for _, g := range []*Graph{BERT(), CorpusGraphs(1)[40]} {
		first := true
		for _, method := range []Method{MethodZeroShot, MethodFineTune} {
			for _, sim := range []bool{false, true} {
				for _, seed := range seeds {
					opts := PlanOptions{Method: method, SampleBudget: 16, Seed: seed, UseSimulator: sim}
					want := coldPlan(t, cold, policy, g, opts)
					got, reused := planReused(t, warm, g, opts)
					if reused == first {
						t.Fatalf("%s %v: reused %t on the graph's first plan %t", g.Name(), opts, reused, first)
					}
					first = false
					if reused {
						reuses++
					}
					if resultBits(want) != resultBits(got) {
						t.Errorf("%s %s simulator=%t seed %d: the warm plan differs from the cold one", g.Name(), method, sim, seed)
					}
				}
			}
		}
	}
	if want := 2*2*2*len(seeds) - 2; reuses != want {
		t.Fatalf("%d plans reused a deployment, want %d", reuses, want)
	}
}

// variant returns a copy of g changed by edit.
func variant(g *Graph, edit func(nodes []graph.Node, edges []graph.Edge)) *Graph {
	nodes, edges := append([]graph.Node(nil), g.Nodes()...), append([]graph.Edge(nil), g.Edges()...)
	edit(nodes, edges)
	return rebuild(g.Name(), nodes, edges)
}

// rebuild returns a graph named name with nodes and edges, in their order.
func rebuild(name string, nodes []graph.Node, edges []graph.Edge) *Graph {
	out := NewGraph(name)
	for _, n := range nodes {
		out.AddNode(n)
	}
	for _, e := range edges {
		out.MustAddEdge(e.From, e.To, e.Bytes)
	}
	return out
}

// TestEntriesAreFoundByStructure: a graph that differs from a planned one
// only in a node's name or in its own name finds that graph's deployment,
// or for an RL plan its training kits, on its first plan, since no plan
// reads a name; one whose FLOPs is -0 where the planned graph's is +0, or
// whose edges are inserted in another order, gets an entry of its own.
// Each plans what a cold plan of it does. Mutations caught: entries keyed
// by fingerprint or canonical positions, or by a digest that reads floats
// by value or names.
func TestEntriesAreFoundByStructure(t *testing.T) {
	base := variant(CorpusGraphs(1)[40], func(nodes []graph.Node, _ []graph.Edge) { nodes[0].FLOPs = 0 })
	variants := map[string]struct {
		g      *Graph
		shares bool // finds base's entry
	}{
		"node name":  {variant(base, func(nodes []graph.Node, _ []graph.Edge) { nodes[1].Name += "'" }), true},
		"graph name": {rebuild(base.Name()+"'", base.Nodes(), base.Edges()), true},
		"-0 FLOPs":   {variant(base, func(nodes []graph.Node, _ []graph.Edge) { nodes[0].FLOPs = math.Copysign(0, -1) }), false},
		"edge order": {variant(base, func(_ []graph.Node, edges []graph.Edge) {
			edges[0], edges[len(edges)-1] = edges[len(edges)-1], edges[0]
		}), false},
	}
	for _, method := range []Method{MethodZeroShot, MethodRL} {
		warm, policy := deployedPlanner(t)
		cold, _ := deployedPlanner(t)
		opts := PlanOptions{Method: method, SampleBudget: 16, Seed: 3}
		planReused(t, warm, base, opts)
		for name, v := range variants {
			if err := v.g.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for round := 0; round < 2; round++ {
				got, reused := planReused(t, warm, v.g, opts)
				if reused != (v.shares || round == 1) {
					t.Errorf("%s %s, plan %d: reused an entry %t", method, name, round, reused)
				}
				if w, gb := resultBits(coldPlan(t, cold, policy, v.g, opts)), resultBits(got); w != gb {
					t.Errorf("%s %s, plan %d: warm plan differs from a cold one", method, name, round)
				}
			}
		}
		entries, _ := warm.snapshotPolicy().deployments.snapshot()
		if method == MethodRL {
			entries, _ = warm.training.snapshot()
		}
		if entries != 3 {
			t.Errorf("%s: the store keeps %d entries, want base's and two of the variants' own", method, entries)
		}
	}
}

// TestDeploymentKeepsItsOwnGraph: a caller that grows its graph after a
// plan and plans it again gets the grown graph's cold plan — the deployment,
// or for an RL plan the training kits' entry, was built on a clone, so it
// neither matches the grown graph nor changes with it, and the graph as it
// was before it grew still finds it. Mutation caught: an entry built on the
// caller's graph.
func TestDeploymentKeepsItsOwnGraph(t *testing.T) {
	for _, method := range []Method{MethodZeroShot, MethodRL} {
		warm, policy := deployedPlanner(t)
		cold, _ := deployedPlanner(t)
		orig := CorpusGraphs(1)[40]
		g := orig.Clone()
		opts := PlanOptions{Method: method, SampleBudget: 8, Seed: 4}
		planReused(t, warm, g, opts)
		last := g.NumNodes() - 1
		id := g.AddNode(g.Node(last))
		g.MustAddEdge(last, id, g.Node(last).OutputBytes)
		got, reused := planReused(t, warm, g, opts)
		if reused {
			t.Fatalf("%s: the grown graph's plan reused the entry of the graph before it grew", method)
		}
		if resultBits(got) != resultBits(coldPlan(t, cold, policy, g, opts)) {
			t.Fatalf("%s: the grown graph's plan differs from its cold plan", method)
		}
		if got, reused := planReused(t, warm, orig, opts); !reused || resultBits(got) != resultBits(coldPlan(t, cold, policy, orig, opts)) {
			t.Fatalf("%s: the graph as it was before it grew reused its entry %t, or planned other than its cold plan", method, reused)
		}
	}
}

// TestInstallDropsDeployments: after an install no plan runs from a
// deployment the previous policy's weights made — not even when the new
// policy is the same one installed again — and a plan under a new policy is
// that policy's cold plan.
func TestInstallDropsDeployments(t *testing.T) {
	pl, a := deployedPlanner(t)
	cold, _ := deployedPlanner(t)
	b := rl.NewPolicy(a.Cfg, rand.New(rand.NewSource(2)))
	g := CorpusGraphs(1)[40]
	opts := PlanOptions{Method: MethodZeroShot, SampleBudget: 16, Seed: 2}
	planReused(t, pl, g, opts)
	for _, p := range []*rl.Policy{a, b} {
		pl.installPolicy(p, "")
		got, reused := planReused(t, pl, g, opts)
		if reused {
			t.Fatal("a plan after an install reused a deployment")
		}
		if resultBits(got) != resultBits(coldPlan(t, cold, p, g, opts)) {
			t.Fatal("a plan after an install is not the installed policy's cold plan")
		}
	}
}

// TestReloadKeepsTheDeployments: ReloadPolicies that finds the registry
// artifact already installed keeps the installed snapshot, so a graph
// planned zero-shot before still plans from its deployment. Mutation
// caught: a reload that reinstalls the same artifact, emptying the set.
func TestReloadKeepsTheDeployments(t *testing.T) {
	svc, err := NewService(Edge36(), ServiceOptions{Workers: 1, PolicyDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.planner.installPolicy(rl.NewPolicy(svc.planner.freshPolicyConfig(false), rand.New(rand.NewSource(1))), "")
	if err := svc.SavePolicyToRegistry(); err != nil {
		t.Fatal(err)
	}
	g := CorpusGraphs(1)[40]
	for seed := int64(1); seed <= 3; seed++ {
		if err := svc.ReloadPolicies(); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Plan(context.Background(), g, PlanOptions{Method: MethodZeroShot, SampleBudget: 4, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.DeploymentReuses != 2 || st.PlansExecuted != 3 {
		t.Fatalf("%d of %d plans reused a deployment, want 2 of 3: a reload dropped them", st.DeploymentReuses, st.PlansExecuted)
	}
}

// installBounded installs policy on pl with an empty set of deployments
// bounded by limit, and returns the set.
func installBounded(pl *Planner, policy *rl.Policy, limit int64) *planCache[[32]byte, *deployment] {
	pl.installPolicy(policy, "")
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.installed.deployments = newKitStore[*rl.Deployment](limit)
	return pl.installed.deployments
}

// idleKits returns how many idle kits d holds.
func idleKits(d *deployment) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.idle)
}

// idleBytes returns what d's store counts for d's idle kits, each weighed
// when its plan handed it back.
func idleBytes(d *deployment) (b int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, k := range d.idle {
		b += k.bytes
	}
	return b
}

// TestDeploymentsStayInTheirBound: a deployment whose estimate alone
// exceeds the set's bound is not kept; one that fits while its kit does not
// is kept without it; one that needs another's room evicts the least
// recently used; and a fine-tuned kit — its trainer beside its environment
// and clone — is dropped where a zero-shot kit of the graph fits. The set
// counts every idle kit a deployment holds, as put weighed it, and never
// more than its bound.
func TestDeploymentsStayInTheirBound(t *testing.T) {
	pl, policy := deployedPlanner(t)
	a, b := CorpusGraphs(1)[40], CorpusGraphs(1)[41]
	opts := PlanOptions{Method: MethodZeroShot, SampleBudget: 4, Seed: 1}
	planReused(t, pl, a, opts)
	planReused(t, pl, b, opts)
	set := pl.snapshotPolicy().deployments
	kept := set.values()
	if len(kept) != 2 || idleKits(kept[0]) != 1 || idleKits(kept[1]) != 1 {
		t.Fatalf("under the default bound %d deployments are kept, want 2 with an idle kit each", len(kept))
	}
	da, db := kept[1], kept[0]
	aBytes, bBytes := da.base.Bytes()+idleBytes(da), db.base.Bytes()+idleBytes(db)
	if _, used := set.snapshot(); idleBytes(da) == 0 || idleBytes(db) == 0 || used != aBytes+bBytes {
		t.Fatalf("the set counts %d bytes, its deployments and kits hold %d", used, aBytes+bBytes)
	}
	check := func(what string, set *planCache[[32]byte, *deployment], g *Graph, wantReused bool) {
		t.Helper()
		if _, reused := planReused(t, pl, g, opts); reused != wantReused {
			t.Errorf("%s: %s's plan reused a deployment %t, want %t", what, g.Name(), reused, wantReused)
		}
		if _, used := set.snapshot(); used > set.limit {
			t.Errorf("%s: the set counts %d bytes, bound %d", what, used, set.limit)
		}
	}

	set = installBounded(pl, policy, da.base.Bytes()-1)
	check("over the bound", set, a, false)
	check("over the bound", set, a, false)
	if entries, used := set.snapshot(); entries != 0 || used != 0 {
		t.Errorf("over the bound: %d deployments kept, %d bytes counted", entries, used)
	}

	set = installBounded(pl, policy, da.base.Bytes())
	check("no room for a kit", set, a, false)
	check("no room for a kit", set, a, true)
	kept = set.values()
	if _, used := set.snapshot(); len(kept) != 1 || idleKits(kept[0]) != 0 || used != da.base.Bytes() {
		t.Errorf("no room for a kit: %d deployments kept, %d bytes counted", len(kept), used)
	}

	set = installBounded(pl, policy, max(aBytes, bBytes))
	check("room for one", set, a, false)
	check("room for one", set, b, false)
	if kept := set.values(); len(kept) != 1 || kept[0].key != b.StructureDigest() {
		t.Errorf("room for one: %d deployments kept, want b's alone", len(kept))
	}
	check("room for one", set, a, false)

	set = installBounded(pl, policy, aBytes)
	if _, reused := planReused(t, pl, a, PlanOptions{Method: MethodFineTune, SampleBudget: 4, Seed: 1}); reused {
		t.Error("a fine-tuned kit: the plan on a fresh install reused a deployment")
	}
	if kept := set.values(); len(kept) != 1 || idleKits(kept[0]) != 0 {
		t.Errorf("a fine-tuned kit: %d deployments kept, want a's without its kit", len(kept))
	}
	check("a zero-shot kit after a fine-tuned one", set, a, true)
	if _, used := set.snapshot(); used != aBytes {
		t.Errorf("a zero-shot kit after a fine-tuned one: the set counts %d bytes, want a's deployment and kit, %d", used, aBytes)
	}
}

// checkIdleKitsDistinct fails unless every idle kit of set holds an
// environment, a clone, and a trainer if it has one, no other idle kit
// holds: a kit listed twice is handed to two plans at once.
func checkIdleKitsDistinct(t *testing.T, set *planCache[[32]byte, *deployment]) {
	t.Helper()
	envs, clones, trainers := make(map[*rl.Env]bool), make(map[*rl.Policy]bool), make(map[*rl.Trainer]bool)
	for _, d := range set.values() {
		d.mu.Lock()
		for _, k := range d.idle {
			if envs[k.env] || clones[k.policy] || (k.trainer != nil && trainers[k.trainer]) {
				t.Errorf("an environment, a clone or a trainer is idle in two kits")
			}
			envs[k.env], clones[k.policy], trainers[k.trainer] = true, true, true
		}
		d.mu.Unlock()
	}
}

// TestConcurrentPlansShareADeployment: plans under one installed policy,
// run at once, share their graphs' deployments — each encoding read by all,
// kits taken and put back concurrently — and each plans what the serial
// cold plan of its graph and seed does. First one graph under the default
// bound; then three under a bound with room for one deployment, so that
// puts, evictions and dropped kits race with takes and puts. No two
// in-flight plans hold one clone or one environment: every plan checks, at
// every sample, that the idle kits are distinct, and under -race (CI) two
// plans writing one clone's scratch fail the run. Every field a
// deployment's mutex guards is read and written here on several
// goroutines.
func TestConcurrentPlansShareADeployment(t *testing.T) {
	warm, policy := deployedPlanner(t)
	cold, _ := deployedPlanner(t)
	graphs := []*Graph{CorpusGraphs(1)[40], CorpusGraphs(1)[41], CorpusGraphs(1)[42]}
	const seeds = 4
	want := make(map[[2]int]string)
	for gi, g := range graphs {
		for seed := 1; seed <= seeds; seed++ {
			want[[2]int{gi, seed}] = resultBits(coldPlan(t, cold, policy, g, PlanOptions{Method: MethodZeroShot, SampleBudget: 12, Seed: int64(seed)}))
		}
	}
	progress := func(ProgressEvent) { checkIdleKitsDistinct(t, warm.snapshotPolicy().deployments) }
	run := func(n int) {
		var wg sync.WaitGroup
		for round := 0; round < 2; round++ {
			for gi := 0; gi < n; gi++ {
				for seed := 1; seed <= seeds; seed++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						// A graph of its own, as a decoded request brings.
						res, err := warm.Plan(context.Background(), graphs[gi].Clone(), PlanOptions{Method: MethodZeroShot, SampleBudget: 12, Seed: int64(seed), Progress: progress})
						if err != nil {
							t.Error(err)
							return
						}
						if resultBits(res) != want[[2]int{gi, seed}] {
							t.Errorf("a concurrent plan of graph %d, seed %d differs from its cold plan", gi, seed)
						}
					}()
				}
			}
			wg.Wait()
		}
	}
	run(1)
	set := warm.snapshotPolicy().deployments
	checkIdleKitsDistinct(t, set)
	if kept := set.values(); len(kept) != 1 || idleKits(kept[0]) == 0 {
		t.Fatalf("after concurrent plans of one graph the set keeps %d deployments", len(kept))
	}
	var limit int64 // room for any one graph's deployment and kit
	for _, g := range graphs {
		pl, _ := deployedPlanner(t)
		planReused(t, pl, g, PlanOptions{Method: MethodZeroShot, SampleBudget: 12, Seed: 1})
		_, used := pl.snapshotPolicy().deployments.snapshot()
		limit = max(limit, used)
	}
	set = installBounded(warm, policy, limit)
	run(len(graphs))
	checkIdleKitsDistinct(t, set)
	if entries, used := set.snapshot(); used > limit || entries > 1 {
		t.Fatalf("under a bound with room for one deployment the set keeps %d, %d bytes", entries, used)
	}
}

// TestConcurrentFineTunePlansTradeKits: fine-tune and zero-shot plans of
// one graph under one installed policy, run at once on graphs of their own,
// take and hand back its deployment's kits concurrently — a fine-tune plan
// builds a trainer on a kit a zero-shot plan built or Restarts one an
// earlier fine-tune plan left, a zero-shot plan runs on a kit whose trainer
// it leaves alone — and each plans what the serial cold plan of its method
// and seed does. Every plan checks at every sample that the idle kits are
// distinct; under -race (CI) two plans in one environment, clone or trainer
// fail the run. Once the plans are done the set counts exactly what its
// deployment holds, as put weighed it, and no plan counted as an RL plan.
func TestConcurrentFineTunePlansTradeKits(t *testing.T) {
	warm, policy := deployedPlanner(t)
	cold, _ := deployedPlanner(t)
	g := CorpusGraphs(1)[40]
	methods := []Method{MethodFineTune, MethodZeroShot}
	const seeds = 2
	opts := func(m Method, seed int) PlanOptions {
		return PlanOptions{Method: m, SampleBudget: 16, Seed: int64(seed)}
	}
	want := make(map[[2]int]string)
	for mi, m := range methods {
		for seed := 1; seed <= seeds; seed++ {
			want[[2]int{mi, seed}] = resultBits(coldPlan(t, cold, policy, g, opts(m, seed)))
		}
	}
	progress := func(ProgressEvent) { checkIdleKitsDistinct(t, warm.snapshotPolicy().deployments) }
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for mi, m := range methods {
			for seed := 1; seed <= seeds; seed++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					o := opts(m, seed)
					o.Progress = progress
					res, err := warm.Plan(context.Background(), g.Clone(), o)
					if err != nil {
						t.Error(err)
						return
					}
					if resultBits(res) != want[[2]int{mi, seed}] {
						t.Errorf("a concurrent %s plan, seed %d, differs from its cold plan", m, seed)
					}
				}()
			}
		}
		wg.Wait()
	}
	set := warm.snapshotPolicy().deployments
	checkIdleKitsDistinct(t, set)
	kept := set.values()
	if len(kept) != 1 || idleKits(kept[0]) == 0 || idleKits(kept[0]) > len(methods)*seeds {
		t.Fatalf("after concurrent plans of one graph the set keeps %d deployments", len(kept))
	}
	trainers := 0
	for _, k := range kept[0].idle {
		if k.trainer != nil {
			trainers++
		}
	}
	if trainers == 0 {
		t.Error("no idle kit keeps a fine-tune plan's trainer")
	}
	if n := warm.rlPlans[kitNew].Load() + warm.rlPlans[kitReused].Load(); n != 0 {
		t.Errorf("the planner counts %d RL plans, want 0: fine-tune plans are not RL plans", n)
	}
	if _, used := set.snapshot(); used != kept[0].base.Bytes()+idleBytes(kept[0]) {
		t.Errorf("the set counts %d bytes, its deployment and idle kits hold %d", used, kept[0].base.Bytes()+idleBytes(kept[0]))
	}
}

// TestReusedEnvironmentCallsNoEarlierProgress: a plan whose environment an
// earlier plan with a progress callback left calls that callback never, and
// its own once per sample.
func TestReusedEnvironmentCallsNoEarlierProgress(t *testing.T) {
	pl, _ := deployedPlanner(t)
	g := CorpusGraphs(1)[40]
	var first, second int
	opts := PlanOptions{Method: MethodZeroShot, SampleBudget: 6, Seed: 1, Progress: func(ProgressEvent) { first++ }}
	planReused(t, pl, g, opts)
	if first != 6 {
		t.Fatalf("the first plan's callback ran %d times, want 6", first)
	}
	opts.Seed, opts.Progress = 2, nil
	if _, reused := planReused(t, pl, g, opts); !reused {
		t.Fatal("the second plan did not reuse the deployment")
	}
	opts.Seed, opts.Progress = 3, func(ProgressEvent) { second++ }
	planReused(t, pl, g, opts)
	if first != 6 || second != 6 {
		t.Fatalf("callbacks ran %d and %d times, want 6 and 6: a reused environment called an earlier plan's", first, second)
	}
}

// storeKits returns how many entries set holds and the idle kits of all of
// them.
func storeKits[D any](set *planCache[[32]byte, *kitPool[D]]) (entries int, idle []kit) {
	kept := set.values()
	for _, p := range kept {
		p.mu.Lock()
		idle = append(idle, p.idle...)
		p.mu.Unlock()
	}
	return len(kept), idle
}

// TestCancelledPlanReturnsItsKit: a zero-shot plan cancelled mid-episode,
// an RL plan cancelled mid-iteration — which stops when the iteration ends
// (TrainUntil) — or an annealing plan cancelled mid-run hands its kit back
// as a plan that ran to its budget does, and the next plan of the graph, on
// that kit — its solver's tables and its clone's, its trainer's or its
// annealing matrix as the cancelled plan left them — is the cold
// plan bit for bit.
func TestCancelledPlanReturnsItsKit(t *testing.T) {
	for _, c := range []struct {
		method          Method
		budget, samples int // the cancelled plan's budget, and the samples it returns
	}{{MethodZeroShot, 16, 5}, {MethodRL, 32, 16}, {MethodSA, 16, 5}} {
		warm, policy := deployedPlanner(t)
		cold, _ := deployedPlanner(t)
		g := CorpusGraphs(1)[40]
		ctx, cancel := context.WithCancel(context.Background())
		cancelled, err := normalizeRequest(g, PlanOptions{Method: c.method, SampleBudget: c.budget, Seed: 1, Progress: func(ev ProgressEvent) {
			if ev.Samples == 5 { // the first step of an episode
				cancel()
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		installed := warm.snapshotPolicy()
		res, _, err := warm.plan(ctx, g, cancelled, installed)
		cancel()
		if !errors.Is(err, context.Canceled) || res == nil || res.Samples != c.samples {
			t.Fatalf("%s: the cancelled plan returned %+v, %v; want its %d samples and context.Canceled", c.method, res, err, c.samples)
		}
		kits := func() (int, []kit) {
			if c.method == MethodRL || c.method == MethodSA {
				return storeKits(warm.training)
			}
			return storeKits(installed.deployments)
		}
		entries, idle := kits()
		if entries != 1 || len(idle) != 1 {
			t.Fatalf("%s: after a cancelled plan %d entries are kept, want 1 with its kit", c.method, entries)
		}
		k := idle[0]
		opts := PlanOptions{Method: c.method, SampleBudget: 16, Seed: 2}
		got, reused := planReused(t, warm, g, opts)
		if _, idle := kits(); (!reused && c.method != MethodSA) || len(idle) != 1 || idle[0].env != k.env {
			t.Fatalf("%s: the next plan did not run on the cancelled plan's kit", c.method)
		}
		if resultBits(got) != resultBits(coldPlan(t, cold, policy, g, opts)) {
			t.Fatalf("%s: the plan on a cancelled plan's kit differs from the cold plan", c.method)
		}
	}
}

// TestPanickedPlanReturnsNoKit: a plan that panics mid-sample hands back
// neither its environment nor its clone, either of which it may have left
// half written — its deployment stopped counting the kit when the plan took
// it — and the next plan of the graph runs on a new kit and plans the cold
// plan. Mutations caught: a deferred put, and a taken kit left counted.
func TestPanickedPlanReturnsNoKit(t *testing.T) {
	warm, policy := deployedPlanner(t)
	cold, _ := deployedPlanner(t)
	g := CorpusGraphs(1)[40]
	opts := PlanOptions{Method: MethodZeroShot, SampleBudget: 8, Seed: 1}
	planReused(t, warm, g, opts)
	set := warm.snapshotPolicy().deployments
	d := set.values()[0]
	k := d.idle[0]
	if k.bytes == 0 {
		t.Fatal("the set weighs an idle kit 0 bytes")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the plan did not panic")
			}
		}()
		panicking := opts
		panicking.Progress = func(ProgressEvent) { panic("mid-plan") }
		planReused(t, warm, g, panicking)
	}()
	if _, used := set.snapshot(); len(d.idle) != 0 || used != d.base.Bytes() {
		t.Fatalf("after a panicked plan the deployment has %d idle kits and the set counts %d bytes, want none and %d", len(d.idle), used, d.base.Bytes())
	}
	opts.Seed = 2
	got, reused := planReused(t, warm, g, opts)
	if !reused || len(d.idle) != 1 || d.idle[0].env == k.env || d.idle[0].policy == k.policy {
		t.Fatal("the next plan did not run on a new kit")
	}
	if _, used := set.snapshot(); used != d.base.Bytes()+k.bytes {
		t.Fatalf("with the new kit idle the set counts %d bytes, want the deployment and a kit of the lost one's weight, %d", used, d.base.Bytes()+k.bytes)
	}
	if resultBits(got) != resultBits(coldPlan(t, cold, policy, g, opts)) {
		t.Fatal("the plan after a panicked one differs from the cold plan")
	}
}

// TestFineTuneLeavesTheKitsClone: a fine-tune plan runs on a kit's
// environment but trains a clone of its own, so the kit it hands back holds
// the installed weights and the zero-shot plan that takes it next plans the
// cold plan. Mutation caught: a fine-tune plan that trains the kit's clone.
func TestFineTuneLeavesTheKitsClone(t *testing.T) {
	warm, policy := deployedPlanner(t)
	cold, _ := deployedPlanner(t)
	g := CorpusGraphs(1)[40]
	planReused(t, warm, g, PlanOptions{Method: MethodFineTune, SampleBudget: 64, Seed: 1})
	if k := warm.snapshotPolicy().deployments.values()[0].idle[0]; rl.PolicyFingerprint(k.policy) != warm.PolicyFingerprint() {
		t.Fatal("a fine-tune plan handed back a kit whose clone no longer holds the installed weights")
	}
	opts := PlanOptions{Method: MethodZeroShot, SampleBudget: 16, Seed: 1}
	got, reused := planReused(t, warm, g, opts)
	if !reused {
		t.Fatal("the zero-shot plan did not reuse the fine-tune plan's deployment")
	}
	if resultBits(got) != resultBits(coldPlan(t, cold, policy, g, opts)) {
		t.Fatal("a zero-shot plan on a fine-tune plan's kit differs from the cold plan")
	}
}

// TestFineTunePlansTrainTheInstalledWeights: a graph's fine-tune plans —
// the first on a new kit, the ones after on the trainer it left, on the
// cost model and the simulator — each plan what a new trainer on a clone of
// the installed policy, under the install's fine-tune configuration, trains
// on a new environment of the graph from the plan's seed. Mutations caught:
// a fine-tune trainer whose weights are drawn from the seed, or a Restart
// that keeps the previous plan's weights; the warm-against-cold tests
// cannot see either, since their cold plans run the same code.
func TestFineTunePlansTrainTheInstalledWeights(t *testing.T) {
	pl, policy := deployedPlanner(t)
	g := CorpusGraphs(1)[40]
	for _, sim := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			opts := PlanOptions{Method: MethodFineTune, SampleBudget: 16, Seed: seed, UseSimulator: sim}
			got, _ := planReused(t, pl, g, opts)
			ev := pl.evaluator(sim, seed)
			_, base, err := pl.baseline(g, ev)
			if err != nil {
				t.Fatal(err)
			}
			env, err := pl.buildEnv(g, pl.graphContext(g, policy.Cfg), ev, base.Throughput)
			if err != nil {
				t.Fatal(err)
			}
			env.UseSampleMode = true
			rng := rand.New(rand.NewSource(seed))
			trainer := rl.NewTrainer(policy.Clone(), pl.snapshotPolicy().ftPPO, rng)
			if _, err := trainer.TrainUntil(context.Background(), []*rl.Env{env}, opts.SampleBudget); err != nil {
				t.Fatal(err)
			}
			want := &Result{Partition: env.Best, Throughput: env.BestThroughput, Improvement: env.BestImprovement(), Samples: env.Samples, History: env.History, FailCounts: env.FailCounts}
			kept := pl.snapshotPolicy().deployments.values()[0].idle[0].trainer.Policy
			if resultBits(got) != resultBits(want) || !reflect.DeepEqual(kept.Snapshot(), trainer.Policy.Snapshot()) {
				t.Errorf("simulator=%t seed %d: the fine-tune plan, or the weights it trained, differs from a new trainer's on a clone of the installed policy", sim, seed)
			}
		}
	}
}

// TestServiceCountsAndLogsDeploymentReuses: a zero-shot request for a graph
// the service planned before under the same policy counts one deployment
// reuse, and its request's log line says which tier served it and that it
// reused a deployment; a cache hit's says the memory tier and no reuse.
func TestServiceCountsAndLogsDeploymentReuses(t *testing.T) {
	var logs bytes.Buffer
	svc, err := NewService(Edge36(), ServiceOptions{Workers: 1, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.planner.installPolicy(rl.NewPolicy(svc.planner.freshPolicyConfig(false), rand.New(rand.NewSource(1))), "")
	h := NewHTTPHandler(svc)
	g := CorpusGraphs(1)[40]
	type line struct {
		Tier             string `json:"tier"`
		DeploymentReused bool   `json:"deployment_reused"`
	}
	want := []line{{tierPlanner, false}, {tierPlanner, true}, {tierMemory, false}}
	for i, seed := range []int64{1, 2, 2} {
		logs.Reset()
		body, err := json.Marshal(PlanRequestWire{Graph: g, Options: PlanOptionsWire{Method: MethodZeroShot, SampleBudget: 4, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
		var got line
		if err := json.Unmarshal(logs.Bytes(), &got); err != nil {
			t.Fatalf("request %d's log line %q: %v", i, logs.String(), err)
		}
		if got != want[i] {
			t.Errorf("request %d logged %+v, want %+v", i, got, want[i])
		}
	}
	st := svc.Stats()
	if st.DeploymentReuses != 1 || st.PlansExecuted != 2 {
		t.Fatalf("deployment reuses %d over %d plans, want 1 over 2", st.DeploymentReuses, st.PlansExecuted)
	}
	d := svc.planner.snapshotPolicy().deployments.values()[0]
	if want := d.base.Bytes() + idleBytes(d); idleBytes(d) == 0 || st.DeploymentBytes != want {
		t.Fatalf("the stats count %d deployment bytes, the graph's deployment and idle kit hold %d", st.DeploymentBytes, want)
	}
}

// BenchmarkPlanZeroShotWarmBERT times what a repeat zero-shot request costs
// the planner: BERT on Edge36 under an installed policy, its deployment
// built by an earlier plan, a new seed per iteration at serve-zeroshot's
// budget.
func BenchmarkPlanZeroShotWarmBERT(b *testing.B) {
	pl, _ := deployedPlanner(b)
	g := BERT()
	plan := func(seed int64) {
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodZeroShot, SampleBudget: 16, Seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
	plan(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan(int64(i + 2))
	}
}

// TestFirstDeployedPlanHeapBytes holds what the first zero-shot plan of a
// graph under an installed policy allocates: the plan, and the deployment
// it builds — a clone of the graph sharing its adjacency and layout, the
// context, the encoding and start distribution, and the environment.
// BERT/edge36 at serve-zeroshot's budget, one worker; the ceiling is the
// 10 165 296 bytes measured when deployments were introduced, 0.3 MB above
// a plan that built no deployment (the clone).
func TestFirstDeployedPlanHeapBytes(t *testing.T) {
	const ceiling = 10200000
	pl, _ := deployedPlanner(t)
	g := BERT()
	opts, err := normalizeRequest(g, PlanOptions{Method: MethodZeroShot, SampleBudget: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	old := parallel.Default()
	parallel.SetDefault(1)
	defer parallel.SetDefault(old)
	installed := pl.snapshotPolicy()
	if _, _, err := pl.plan(context.Background(), g, opts, installed); err != nil { // the graph's memoized layout
		t.Fatal(err)
	}
	installed.deployments = newDeployments()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, reused, err := pl.plan(context.Background(), g, opts, installed)
	runtime.ReadMemStats(&after)
	if err != nil || reused {
		t.Fatalf("plan: reused %t, %v", reused, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("a graph's first zero-shot plan allocates %d bytes, ceiling %d", got, ceiling)
	}
}

// checkDeployedKitWeight fails unless what g's deployment counts for the
// idle kit a plan of method m on BERT/edge36 at w workers handed back is
// what the kit keeps, within 1 %: the difference the heap makes when the
// deployment lets the kit go.
func checkDeployedKitWeight(t *testing.T, m Method, w int) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector checks no estimate")
	}
	pl, _ := deployedPlanner(t)
	g := BERT()
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	withWorkers(w, func() {
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: m, SampleBudget: 16, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	d := pl.snapshotPolicy().deployments.values()[0]
	est := uint64(idleBytes(d))
	runtime.GC() // what the plan left in a sync.Pool goes at the second collection
	with := live()
	d.take()
	kept := with - live()
	runtime.KeepAlive(pl) // and with it the installed policy and d
	if est < kept*99/100 || est > kept*101/100 {
		t.Errorf("a BERT %s kit weighs %d bytes, it keeps %d", m, est, kept)
	}
}

// TestZeroShotKitWeightEstimate: the weight put gives an idle kit a
// zero-shot plan handed back — an environment on the deployment's context,
// its solver's tables built, and a clone of the policy with its head and
// zero-shot scratch sized — is within 1 % of what the kit keeps, so that
// the byte bound on a policy's deployments counts the kits they own.
func TestZeroShotKitWeightEstimate(t *testing.T) { checkDeployedKitWeight(t, MethodZeroShot, 1) }

// TestFineTuneKitWeightEstimate: the weight put gives an idle kit a
// fine-tune plan at two workers handed back — the zero-shot kit's
// environment and clone, and a trainer with its policy, optimizer, record,
// buffers and a rollout worker's clone, record and partitioner replica —
// is within 1 % of what the kit keeps.
func TestFineTuneKitWeightEstimate(t *testing.T) { checkDeployedKitWeight(t, MethodFineTune, 2) }

// TestRepeatFineTunePlanHeapBytes holds what a repeat graph's fine-tune plan
// allocates through the Planner: BERT/edge36 under an installed quick
// policy at budget 32, one worker. plan(2) runs on the kit plan(1), the
// graph's first, built and plan(3) handed back — environment, clone, and a
// trainer whose policy, optimizer, record and step buffers are sized — so
// it allocates its transitions and outcomes, the Result and the greedy
// baseline: 182 368 bytes measured, against 11 160 672 while every
// fine-tune plan built a trainer on a fresh clone (20.9 MB at two workers,
// with a rollout clone and a partitioner replica per worker and batch) and
// 1 542 256 while each batch's rollout workers allocated their SAMPLE-mode
// matrix.
func TestRepeatFineTunePlanHeapBytes(t *testing.T) {
	const ceiling = 250000
	if raceEnabled {
		t.Skip("three BERT fine-tune plans; the race detector checks no allocation")
	}
	pl, _ := deployedPlanner(t)
	g := BERT()
	withWorkers(1, func() {
		plan := func(seed int64) {
			if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodFineTune, SampleBudget: 32, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		plan(1) // the graph's memoized layout and digest, its deployment and kit
		plan(3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan(2)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d bytes", got)
		if got > ceiling {
			t.Errorf("a repeat graph's fine-tune plan allocates %d bytes, ceiling %d: does it size a trainer or build a kit again?", got, ceiling)
		}
	})
}

// BenchmarkPlanFineTuneWarmBERT times what a repeat fine-tune plan of a
// graph costs the planner: BERT on Edge36 under an installed quick policy
// at budget 32 and plan seeds 1, 2, 3 in turn, on the deployment kit an
// earlier plan built. TestRepeatFineTunePlanHeapBytes holds its bytes.
func BenchmarkPlanFineTuneWarmBERT(b *testing.B) {
	pl, _ := deployedPlanner(b)
	g := BERT()
	plan := func(seed int64) {
		if _, err := pl.Plan(context.Background(), g, PlanOptions{Method: MethodFineTune, SampleBudget: 32, Seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
	plan(1) // the graph's deployment and kit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan(int64(i%3 + 1))
	}
}
