package mcmpart

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/rl"
)

// How the per-graph stores are keyed, dropped, bounded and counted; their
// plans are held to cold plans in kits_test.go.

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
		warm, _ := deployedPlanner(t)
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
				if resultBits(got) != coldPlan(t, v.g, opts).bits {
					t.Errorf("%s %s, plan %d: warm plan differs from a cold one", method, name, round)
				}
			}
		}
		if entries := len(planKits(t, warm, true)[store(method)]); entries != 3 {
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
		warm, _ := deployedPlanner(t)
		orig := CorpusGraphs(1)[40]
		g := orig.Clone()
		opts := PlanOptions{Method: method, SampleBudget: 8, Seed: 4}
		planReused(t, warm, g, opts)
		last := g.NumNodes() - 1
		g.MustAddEdge(last, g.AddNode(g.Node(last)), g.Node(last).OutputBytes)
		got, reused := planReused(t, warm, g, opts)
		if reused {
			t.Fatalf("%s: the grown graph's plan reused the entry of the graph before it grew", method)
		}
		if resultBits(got) != coldPlan(t, g, opts).bits {
			t.Fatalf("%s: the grown graph's plan differs from its cold plan", method)
		}
		if got, reused := planReused(t, warm, orig, opts); !reused || resultBits(got) != coldPlan(t, orig, opts).bits {
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
		cold, _ := deployedPlanner(t)
		cold.installPolicy(p, "")
		if want, _ := planReused(t, cold, g, opts); resultBits(got) != resultBits(want) {
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
	if kits := checkKits(t, set, true); len(kits) != 2 || len(kits[a.StructureDigest()]) != 1 || len(kits[b.StructureDigest()]) != 1 {
		t.Fatalf("under the default bound %d deployments are kept, want 2 with an idle kit each", len(kits))
	}
	da, _ := set.get(a.StructureDigest())
	db, _ := set.get(b.StructureDigest())
	aBytes, bBytes := da.weight.Load(), db.weight.Load()
	check := func(what string, set *planCache[[32]byte, *deployment], g *Graph, wantReused bool) map[[32]byte][]kit {
		t.Helper()
		if _, reused := planReused(t, pl, g, opts); reused != wantReused {
			t.Errorf("%s: %s's plan reused a deployment %t, want %t", what, g.Name(), reused, wantReused)
		}
		return checkKits(t, set, true)
	}

	set = installBounded(pl, policy, da.base.Bytes()-1)
	check("over the bound", set, a, false)
	check("over the bound", set, a, false)
	if entries, used := set.snapshot(); entries != 0 || used != 0 {
		t.Errorf("over the bound: %d deployments kept, %d bytes counted", entries, used)
	}

	set = installBounded(pl, policy, da.base.Bytes())
	check("no room for a kit", set, a, false)
	kits := check("no room for a kit", set, a, true)
	if _, used := set.snapshot(); len(kits) != 1 || len(kits[a.StructureDigest()]) != 0 || used != da.baseBytes {
		t.Errorf("no room for a kit: %d deployments kept, %d bytes counted", len(kits), used)
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
	if kits := checkKits(t, set, true); len(kits) != 1 || len(kits[a.StructureDigest()]) != 0 {
		t.Errorf("a fine-tuned kit: %d deployments kept, want a's without its kit", len(kits))
	}
	check("a zero-shot kit after a fine-tuned one", set, a, true)
	if _, used := set.snapshot(); used != aBytes {
		t.Errorf("a zero-shot kit after a fine-tuned one: the set counts %d bytes, want a's deployment and kit, %d", used, aBytes)
	}
}

// TestFineTuneLeavesTheKitsClone: a fine-tune plan runs on a kit's
// environment but trains a clone of its own, so the kit it hands back holds
// the installed weights and the zero-shot plan that takes it next plans the
// cold plan. Mutation caught: a fine-tune plan that trains the kit's clone.
func TestFineTuneLeavesTheKitsClone(t *testing.T) {
	warm, _ := deployedPlanner(t)
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
	if resultBits(got) != coldPlan(t, g, opts).bits {
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
	set := svc.planner.snapshotPolicy().deployments
	if _, used := set.snapshot(); len(checkKits(t, set, true)[g.StructureDigest()]) != 1 || st.DeploymentBytes != used {
		t.Fatalf("the stats count %d deployment bytes, the graph's deployment and idle kit hold %d", st.DeploymentBytes, used)
	}
}
