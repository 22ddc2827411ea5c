package mcmpart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mcmpart/internal/parallel"
	"mcmpart/internal/rl"
)

// The per-graph kit stores (kitpool.go) — an installed policy's deployments
// (deployment.go) for zero-shot and fine-tune plans, the planner's training
// kits (training.go) for RL, random and annealing plans — keep one contract:
// a plan on a kit an earlier plan left behind plans what a cold plan does,
// bit for bit, and each store counts exactly what its entries hold.
//
// One harness holds it: a table of rows (kitRows), one cold-plan cache
// (coldPlan), one store check (checkKits), and a mode for each way a kit
// changes hands — serial (serialKits), concurrent and bounded
// (checkConcurrent), the first-plan race, cancelled and panicked plans. Each
// test below runs one mode over the rows it names.

// kitRows are the harness's rows: every method that plans on a kit, on the
// cost model and on the simulator, at budget 16. A row's Seed is each plan's.
var kitRows = func() (rows []PlanOptions) {
	for _, m := range []Method{MethodRandom, MethodSA, MethodRL, MethodZeroShot, MethodFineTune} {
		for _, sim := range []bool{false, true} {
			rows = append(rows, PlanOptions{Method: m, SampleBudget: 16, UseSimulator: sim})
		}
	}
	return rows
}()

// rowsOf returns the rows of kitRows that plan by one of methods.
func rowsOf(methods ...Method) (rows []PlanOptions) {
	for _, row := range kitRows {
		if slices.Contains(methods, row.Method) {
			rows = append(rows, row)
		}
	}
	return rows
}

// trainingRows plan on the planner's training kits, deploymentRows on the
// installed policy's deployments.
var (
	trainingRows   = rowsOf(MethodRandom, MethodSA, MethodRL)
	deploymentRows = rowsOf(MethodZeroShot, MethodFineTune)
)

// withSeed returns opts planned from seed.
func withSeed(opts PlanOptions, seed int64) PlanOptions {
	opts.Seed = seed
	return opts
}

// rowName names a row in subtest names.
func rowName(opts PlanOptions) string {
	return fmt.Sprintf("%s/simulator=%t", opts.Method, opts.UseSimulator)
}

// store is the index of m's store in what planKits returns: 0 for the
// training kits, 1 for the installed policy's deployments.
func store(m Method) int {
	if m.usesPolicy() {
		return 1
	}
	return 0
}

// resultBits renders every field of a result, floats by their bits.
func resultBits(r *Result) string {
	hist := make([]uint64, len(r.History))
	for i, h := range r.History {
		hist[i] = math.Float64bits(h)
	}
	return fmt.Sprintf("%v %x %x %d %x %v", r.Partition, math.Float64bits(r.Throughput), math.Float64bits(r.Improvement), r.Samples, hist, r.FailCounts)
}

// withWorkers runs fn under a temporary process-default worker count.
func withWorkers(w int, fn func()) {
	old := parallel.Default()
	parallel.SetDefault(w)
	defer parallel.SetDefault(old)
	fn()
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
// or, for MethodRL, an idle training kit's trainer.
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

// coldRun is a cold plan: its Result's bits, and what its method's store
// counts after it, the graph's base and the kit the plan handed back.
type coldRun struct {
	bits string
	kept int64
}

// colds holds the cold plans asked for, by the graph's StructureDigest (a
// plan reads no name) and the options.
var colds = make(map[string]coldRun)

// coldPlan returns g's cold plan under opts — a plan on a deployedPlanner,
// with no deployment and no training kit to take — planning it once per
// test binary. Call it from a test's goroutine only.
func coldPlan(tb testing.TB, g *Graph, opts PlanOptions) coldRun {
	tb.Helper()
	key := fmt.Sprint(g.StructureDigest(), opts.Method, opts.SampleBudget, opts.Seed, opts.UseSimulator)
	if c, ok := colds[key]; ok {
		return c
	}
	pl, _ := deployedPlanner(tb)
	opts.Progress = nil
	res, _ := planReused(tb, pl, g, opts)
	c := coldRun{bits: resultBits(res)}
	if _, c.kept = pl.training.snapshot(); opts.Method.usesPolicy() {
		_, c.kept = pl.snapshotPolicy().deployments.snapshot()
	}
	colds[key] = c
	return c
}

// checkKits fails unless no environment, policy clone or trainer is idle in
// two of set's kits — a kit listed twice is handed to two plans at once —
// every idle kit weighs something, and every entry counts its base and its
// idle kits as put weighed them. Settled, with no plan running, the store
// must count what its entries hold, within its bound. It returns each
// entry's idle kits by the entry's key, its graph's StructureDigest.
func checkKits[D interface{ Bytes() int64 }](tb testing.TB, set *planCache[[32]byte, *kitPool[D]], settled bool) map[[32]byte][]kit {
	tb.Helper()
	kits, seen := make(map[[32]byte][]kit), make(map[any]bool)
	var sum int64
	for _, p := range set.values() {
		p.mu.Lock()
		w := p.baseBytes
		for _, k := range p.idle {
			if seen[k.env] || (k.policy != nil && seen[k.policy]) || (k.trainer != nil && seen[k.trainer]) || k.bytes <= 0 {
				tb.Errorf("an idle kit weighs %d bytes, or holds an environment, a clone or a trainer another idle kit holds", k.bytes)
			}
			seen[k.env], seen[k.policy], seen[k.trainer] = true, true, true
			w += k.bytes
		}
		if p.baseBytes != p.base.Bytes() || p.weight.Load() != w {
			tb.Errorf("an entry counts %d bytes, its base holds %d (weighed %d) and its idle kits %d", p.weight.Load(), p.base.Bytes(), p.baseBytes, w-p.baseBytes)
		}
		kits[p.key] = append([]kit(nil), p.idle...)
		p.mu.Unlock()
		sum += w
	}
	if _, used := set.snapshot(); settled && (used != sum || used > set.limit) {
		tb.Errorf("the store counts %d bytes, its entries hold %d, bound %d", used, sum, set.limit)
	}
	return kits
}

// planKits checks both of pl's stores (checkKits) and returns their
// entries' idle kits, indexed by store.
func planKits(tb testing.TB, pl *Planner, settled bool) [2]map[[32]byte][]kit {
	tb.Helper()
	return [2]map[[32]byte][]kit{checkKits(tb, pl.training, settled), checkKits(tb, pl.snapshotPolicy().deployments, settled)}
}

// idleKits returns the idle kits of g's entry in the store m plans on.
func idleKits(tb testing.TB, pl *Planner, m Method, g *Graph) []kit {
	tb.Helper()
	return planKits(tb, pl, true)[store(m)][g.StructureDigest()]
}

// kitGraphs are the graphs the harness plans: corpus graphs 40 and 41 (52
// and 77 nodes), on Edge36's segment sampler.
func kitGraphs() []*Graph {
	corpus := CorpusGraphs(1)
	return []*Graph{corpus[40], corpus[41]}
}

// serialPlan is one plan of the serial run.
type serialPlan struct {
	g       *Graph
	opts    PlanOptions // its row, with its seed
	workers int
	res     *Result
	bits    string // res's bits when the plan returned
	want    string // its cold plan's
	onKit   bool   // it left one idle kit in its graph's entry: the kit the graph's earlier plans in its store ran on
	ran     bool   // the graph's earlier plans in its store
	reused  bool   // it reused a deployment
	calls   *atomic.Int64
}

// serialRun is the serial mode: one planner, corpus graphs 40 and 41 and
// BERT, and every plan it planned in turn.
type serialRun struct {
	pl     *Planner
	graphs int // kitGraphs, which every row plans
	plans  []serialPlan
}

// serial is the serial run, planned once per test binary by serialKits.
var serial *serialRun

// serialKits returns the serial run, planning it on the first call. One
// planner plans every row of kitRows, graph and seed in turn, at one worker
// and then at eight, so every plan but a graph's first in a store runs on
// the kit the plan before it handed back, whatever its method: its
// environment, clone and trainer, which grows rollout workers at eight.
// BERT plans fine-tune only (TestPlanGolden pins its other methods warm),
// seeds 1 and 2 at one worker: at eight its kit outgrows the deployments'
// bound. Every other plan has a progress callback, counted on every plan.
// Under -short and -race each row plans seed 1 only. Both stores are
// checked (checkKits) after every plan, which fails the test that plans the
// run; what each plan did is for the tests below to hold. Call it from a
// test's goroutine only.
func serialKits(t *testing.T) *serialRun {
	t.Helper()
	if serial != nil {
		return serial
	}
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() || raceEnabled {
		seeds = seeds[:1]
	}
	graphs := kitGraphs()
	pl, _ := deployedPlanner(t)
	run := &serialRun{pl: pl, graphs: len(graphs)}
	shared := make(map[[2]int]kit) // by graph and store: the kit the graph's plans ran on
	withBERT := append(graphs, BERT())
	for _, w := range []int{1, 8} {
		for gi, g := range withBERT {
			gSeeds := seeds
			if gi == len(graphs) {
				gSeeds = seeds[:min(len(seeds), 2)]
			}
			for _, row := range kitRows {
				if gi == len(graphs) && (row.Method != MethodFineTune || w != 1) {
					continue
				}
				for _, seed := range gSeeds {
					p := serialPlan{g: g, opts: withSeed(row, seed), workers: w}
					p.want = coldPlan(t, g, p.opts).bits
					opts := p.opts
					if len(run.plans)%2 == 0 {
						calls := new(atomic.Int64)
						p.calls, opts.Progress = calls, func(ProgressEvent) { calls.Add(1) }
					}
					withWorkers(w, func() { p.res, p.reused = planReused(t, pl, g, opts) })
					p.bits = resultBits(p.res)
					s := store(row.Method)
					var prev kit
					prev, p.ran = shared[[2]int{gi, s}]
					idle := idleKits(t, pl, row.Method, g)
					p.onKit = len(idle) == 1 && (!p.ran || (idle[0].env == prev.env && idle[0].policy == prev.policy &&
						(prev.trainer == nil || idle[0].trainer == prev.trainer)))
					if len(idle) == 1 {
						shared[[2]int{gi, s}] = idle[0]
					}
					run.plans = append(run.plans, p)
				}
			}
		}
	}
	serial = run
	return run
}

// checkSerialRows fails unless every plan of the serial run of methods left
// its graph's kit in place and planned its cold plan, bit for bit, and
// returns how many there were.
func checkSerialRows(t *testing.T, run *serialRun, methods ...Method) int {
	t.Helper()
	n := 0
	for _, p := range run.plans {
		if !slices.Contains(methods, p.opts.Method) {
			continue
		}
		n++
		if !p.onKit {
			t.Errorf("%s %s seed %d at %d workers: the plan did not hand back the kit the graph's plans before it ran on", p.g.Name(), rowName(p.opts), p.opts.Seed, p.workers)
		}
		if p.bits != p.want {
			t.Errorf("%s %s seed %d at %d workers: the warm plan differs from the cold one", p.g.Name(), rowName(p.opts), p.opts.Seed, p.workers)
		}
	}
	return n
}

// TestWarmSearchPlansMatchColdPlans: random and annealing plans of the
// serial run, on the kit each graph's RL plans share, are their cold plans
// bit for bit and leave that kit in place, and each graph keeps one training
// entry. Mutations caught: a search kit kept in an entry of its own, a
// search plan that drops the kit's trainer, and an environment that keeps
// the previous plan's evaluator.
func TestWarmSearchPlansMatchColdPlans(t *testing.T) {
	run := serialKits(t)
	checkSerialRows(t, run, MethodRandom, MethodSA)
	if kits := planKits(t, run.pl, true)[0]; len(kits) != run.graphs {
		t.Errorf("the training store keeps %d entries, want one per graph planned", len(kits))
	}
}

// TestWarmRLPlansMatchColdPlans: RL plans of the serial run, at one worker
// and then at eight, are their cold plans bit for bit and leave their
// graph's kit in place, and the planner counts each by what it ran on: a
// graph's first RL plan builds the kit's trainer, the rest reuse it.
// Mutations caught: a kit whose trainer is not Restarted, or whose
// environment keeps the previous plan's evaluator.
func TestWarmRLPlansMatchColdPlans(t *testing.T) {
	run := serialKits(t)
	rlPlans := uint64(checkSerialRows(t, run, MethodRL))
	n := uint64(run.graphs)
	if built, reused := run.pl.rlPlans[kitNew].Load(), run.pl.rlPlans[kitReused].Load(); built != n || reused != rlPlans-n {
		t.Errorf("the planner counts %d new-kit and %d reused-kit RL plans, want %d, %d", built, reused, n, rlPlans-n)
	}
}

// TestDeployedPlansMatchColdPlans: zero-shot and fine-tune plans of the
// serial run, on BERT and the corpus graphs, are their cold plans bit for
// bit, leave their graph's kit in place, and reuse its deployment on every
// plan but the graph's first; each graph keeps one deployment.
func TestDeployedPlansMatchColdPlans(t *testing.T) {
	run := serialKits(t)
	checkSerialRows(t, run, MethodZeroShot, MethodFineTune)
	for _, p := range run.plans {
		if p.opts.Method.usesPolicy() && p.reused != p.ran {
			t.Errorf("%s %s seed %d: reused a deployment %t, after the graph's earlier plans %t", p.g.Name(), rowName(p.opts), p.opts.Seed, p.reused, p.ran)
		}
	}
	if kits := planKits(t, run.pl, true)[1]; len(kits) != run.graphs+1 {
		t.Errorf("the deployments keep %d entries, want one per graph planned", len(kits))
	}
}

// TestResultsNeverAliasTheirKit: a Result is its caller's. Once every plan
// of the serial run is done — each graph's later plans on the kit its
// earlier ones handed back — every Result is what it was when its plan
// returned, bit for bit, and still valid on the package. Mutation caught: a
// Result handed the environment's best partition, which the next plan
// overwrites.
func TestResultsNeverAliasTheirKit(t *testing.T) {
	run := serialKits(t)
	for _, p := range run.plans {
		if resultBits(p.res) != p.bits || p.res.Partition.ValidateOn(p.g, run.pl.pkg) != nil {
			t.Fatalf("%s %s seed %d: a Result changed once later plans ran on its kit", p.g.Name(), rowName(p.opts), p.opts.Seed)
		}
	}
}

// TestReusedEnvironmentCallsNoEarlierProgress: once every plan of the
// serial run is done, every other one with a progress callback, each
// callback ran once per sample of its own plan and never from a later plan
// on the kit it left. Mutation caught: Env.Reset keeping the callback.
func TestReusedEnvironmentCallsNoEarlierProgress(t *testing.T) {
	run := serialKits(t)
	for _, p := range run.plans {
		if p.calls != nil && p.calls.Load() != int64(p.res.Samples) {
			t.Fatalf("%s %s seed %d: a plan's callback ran %d times over its %d samples: a kit called an earlier plan's", p.g.Name(), rowName(p.opts), p.opts.Seed, p.calls.Load(), p.res.Samples)
		}
	}
}

// checkConcurrent plans rows on kitGraphs all at once (concurrentKits) on
// a new planner and checks the rows' store: one entry per graph, with 1 to
// one idle kit per plan at once and a trainer among them if a row trains
// one; or, bounded with room for one graph's base and kit, so that puts,
// evictions and dropped kits race with takes, evictions. It returns the
// planner.
func checkConcurrent(t *testing.T, rows []PlanOptions, bounded bool) *Planner {
	t.Helper()
	graphs, s := kitGraphs(), store(rows[0].Method)
	pl, policy := deployedPlanner(t)
	if bounded {
		var limit int64
		for _, g := range graphs {
			for _, row := range rows {
				limit = max(limit, coldPlan(t, g, withSeed(row, 1)).kept)
			}
		}
		if s == 0 {
			pl.training = newKitStore[*rl.GraphContext](limit)
		} else {
			installBounded(pl, policy, limit)
		}
	}
	evictions := pl.training.evictions
	if s == 1 {
		evictions = pl.snapshotPolicy().deployments.evictions
	}
	kits := concurrentKits(t, pl, graphs, rows)[s]
	if bounded {
		if evictions.Load() == 0 {
			t.Errorf("both graphs' plans under a bound with room for one evicted no entry")
		}
		return pl
	}
	trains, trainers := false, 0
	for _, row := range rows {
		trains = trains || row.Method == MethodRL || row.Method == MethodFineTune
	}
	for _, idle := range kits {
		for _, k := range idle {
			if k.trainer != nil {
				trainers++
			}
		}
		if len(idle) == 0 || len(idle) > 2*len(rows) {
			t.Errorf("a graph keeps %d idle kits, want 1 to one per plan at once", len(idle))
		}
	}
	if len(kits) != len(graphs) || trains != (trainers > 0) {
		t.Errorf("the store keeps %d entries and %d trainers, want one entry per graph and a trainer %t", len(kits), trainers, trains)
	}
	return pl
}

// concurrentKits plans every row of rows on each of graphs, seeds 1 and 2,
// all at once on pl and twice over, each on a graph of its own, checks
// both stores at every sample and each Result against its cold plan, and
// returns the stores' idle kits once the plans are done. Under -race (CI)
// two plans in one kit, or a field an entry's mutex guards, fail the run.
func concurrentKits(t *testing.T, pl *Planner, graphs []*Graph, rows []PlanOptions) [2]map[[32]byte][]kit {
	want := make(map[[3]int]string)
	for gi, g := range graphs {
		for ri, row := range rows {
			for seed := 1; seed <= 2; seed++ {
				want[[3]int{gi, ri, seed}] = coldPlan(t, g, withSeed(row, int64(seed))).bits
			}
		}
	}
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for key, bits := range want {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := withSeed(rows[key[1]], int64(key[2]))
				opts.Progress = func(ProgressEvent) { planKits(t, pl, false) }
				res, err := pl.Plan(context.Background(), graphs[key[0]].Clone(), opts)
				if err != nil {
					t.Error(err)
				} else if resultBits(res) != bits {
					t.Errorf("a concurrent plan of graph %d, %s seed %d, differs from its cold plan", key[0], rowName(opts), key[2])
				}
			}()
		}
		wg.Wait()
	}
	return planKits(t, pl, true)
}

// TestConcurrentFromScratchPlansTradeKits: RL, random and annealing plans
// of both graphs, on the cost model and the simulator, run at once on one
// planner, take and hand back their graph's training kits concurrently — an
// RL plan builds a trainer on a kit a search plan built, a search plan runs
// on a kit whose trainer it leaves alone — and each plans what its cold plan
// does; every graph keeps one entry, and the planner counts every RL plan.
func TestConcurrentFromScratchPlansTradeKits(t *testing.T) {
	pl := checkConcurrent(t, trainingRows, false)
	// Two graphs × two evaluators × two seeds × two rounds.
	if n := pl.rlPlans[kitNew].Load() + pl.rlPlans[kitReused].Load(); n != 16 {
		t.Errorf("the planner counts %d RL plans, want 16", n)
	}
}

// TestConcurrentSAPlansTradeKits: random and annealing plans of both
// graphs, on the cost model and the simulator, trade kits no RL plan grew a
// trainer on, and each plans what its cold plan does; under -race two plans
// annealing in one environment's matrices, or scoring into one simulator
// run's memory, fail the run.
func TestConcurrentSAPlansTradeKits(t *testing.T) {
	checkConcurrent(t, rowsOf(MethodRandom, MethodSA), false)
}

// TestConcurrentFineTunePlansTradeKits: fine-tune and zero-shot plans of
// both graphs under one installed policy, run at once, trade their graph's
// deployment's kits — a fine-tune plan builds a trainer on a kit a zero-shot
// plan built or Restarts one an earlier fine-tune plan left, a zero-shot
// plan runs on a kit whose trainer it leaves alone — and each plans what its
// cold plan does; no plan counts as an RL plan.
func TestConcurrentFineTunePlansTradeKits(t *testing.T) {
	pl := checkConcurrent(t, deploymentRows, false)
	if n := pl.rlPlans[kitNew].Load() + pl.rlPlans[kitReused].Load(); n != 0 {
		t.Errorf("the planner counts %d RL plans, want none", n)
	}
}

// TestConcurrentRLPlansTradeKits: RL, random and annealing plans of both
// graphs run at once under a training bound with room for one graph's base
// and kit, so that puts, evictions and dropped kits race with takes; each
// plans what its cold plan does, and the store counts what it holds.
func TestConcurrentRLPlansTradeKits(t *testing.T) {
	checkConcurrent(t, trainingRows, true)
}

// TestConcurrentPlansShareADeployment: zero-shot and fine-tune plans of both
// graphs run at once under a deployments bound with room for one graph's
// deployment and kit, so that puts, evictions and dropped kits race with
// takes; each plans what its cold plan does, and the set counts what it
// holds.
func TestConcurrentPlansShareADeployment(t *testing.T) {
	checkConcurrent(t, deploymentRows, true)
}

// TestConcurrentFirstPlansShareOneEntry: for every row, four first plans
// of a graph on a new planner, each waiting at its first sample until all
// four hold a kit, leave one entry with all four kits, however many of them
// built an entry, and each plans its cold plan. Mutation caught: a takeKit
// that puts every entry it builds, so that the kits handed back to all but
// the last one put are dropped.
func TestConcurrentFirstPlansShareOneEntry(t *testing.T) {
	g := kitGraphs()[0]
	for _, row := range kitRows {
		var want [5]string // by seed, all planned before the race starts
		for seed := int64(1); seed <= 4; seed++ {
			want[seed] = coldPlan(t, g, withSeed(row, seed)).bits
		}
		pl, _ := deployedPlanner(t)
		var wg, arrived sync.WaitGroup
		arrived.Add(4)
		for seed := int64(1); seed <= 4; seed++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var once sync.Once
				defer once.Do(arrived.Done) // a plan that failed before its first sample
				opts := withSeed(row, seed)
				opts.Progress = func(ProgressEvent) { once.Do(func() { arrived.Done(); arrived.Wait() }) }
				res, err := pl.Plan(context.Background(), g.Clone(), opts)
				if err != nil {
					t.Error(err)
				} else if resultBits(res) != want[seed] {
					t.Errorf("%s: a concurrent first plan, seed %d, differs from its cold plan", rowName(row), seed)
				}
			}()
		}
		wg.Wait()
		if kits := planKits(t, pl, true)[store(row.Method)]; len(kits) != 1 || len(kits[g.StructureDigest()]) != 4 {
			t.Errorf("%s: concurrent first plans of one graph leave %d entries, want 1 with the 4 kits they ran on", rowName(row), len(kits))
		}
	}
}

// TestCancelledPlanReturnsItsKit: for every row, a plan cancelled mid-run —
// an RL or fine-tune plan stops when its iteration ends (TrainUntil) —
// returns its best so far and hands its kit back, and the next plan runs on
// that kit as the cancelled plan left it and is the cold plan bit for bit.
func TestCancelledPlanReturnsItsKit(t *testing.T) {
	g := kitGraphs()[0]
	for _, row := range kitRows {
		pl, _ := deployedPlanner(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := withSeed(row, 1)
		cancelled.SampleBudget = 32
		cancelled.Progress = func(ev ProgressEvent) {
			if ev.Samples == 5 { // the first step of an RL episode
				cancel()
			}
		}
		res, err := pl.Plan(ctx, g, cancelled)
		cancel()
		samples := 5
		if row.Method == MethodRL || row.Method == MethodFineTune {
			samples = 16 // the whole first iteration
		}
		if !errors.Is(err, context.Canceled) || res == nil || res.Samples != samples {
			t.Fatalf("%s: the cancelled plan returned %+v, %v; want its %d samples and context.Canceled", rowName(row), res, err, samples)
		}
		k := idleKits(t, pl, row.Method, g)
		got, _ := planReused(t, pl, g, withSeed(row, 2))
		if idle := idleKits(t, pl, row.Method, g); len(k) != 1 || len(idle) != 1 || idle[0].env != k[0].env {
			t.Fatalf("%s: the next plan did not run on the cancelled plan's kit", rowName(row))
		}
		if resultBits(got) != coldPlan(t, g, withSeed(row, 2)).bits {
			t.Errorf("%s: the plan on a cancelled plan's kit differs from the cold plan", rowName(row))
		}
	}
}

// checkPanicked: for each of rows, a plan that panics mid-sample hands back
// no kit, which it may have left half written, and its entry stopped
// counting the kit when the plan took it (checkKits); the next plan runs on
// a new kit and plans the cold plan. Mutations caught: a deferred put, and a
// taken kit left counted.
func checkPanicked(t *testing.T, rows []PlanOptions) {
	g := kitGraphs()[0]
	for _, row := range rows {
		pl, _ := deployedPlanner(t)
		planReused(t, pl, g, withSeed(row, 1))
		lost := idleKits(t, pl, row.Method, g)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: the plan did not panic", rowName(row))
				}
			}()
			panicking := withSeed(row, 1)
			panicking.Progress = func(ProgressEvent) { panic("mid-plan") }
			planReused(t, pl, g, panicking)
		}()
		if idle := idleKits(t, pl, row.Method, g); len(lost) != 1 || len(idle) != 0 {
			t.Fatalf("%s: after a panicked plan the graph's entry keeps %d idle kits, want none", rowName(row), len(idle))
		}
		got, _ := planReused(t, pl, g, withSeed(row, 2))
		k := lost[0]
		if idle := idleKits(t, pl, row.Method, g); len(idle) != 1 || idle[0].env == k.env || (k.policy != nil && idle[0].policy == k.policy) ||
			(k.trainer != nil && idle[0].trainer == k.trainer) {
			t.Fatalf("%s: the next plan did not run on a new kit", rowName(row))
		}
		if resultBits(got) != coldPlan(t, g, withSeed(row, 2)).bits {
			t.Errorf("%s: the plan after a panicked one differs from the cold plan", rowName(row))
		}
	}
}

// TestPanickedPlanReturnsNoKit is checkPanicked on a deployment's kits:
// zero-shot and fine-tune plans.
func TestPanickedPlanReturnsNoKit(t *testing.T) {
	checkPanicked(t, deploymentRows)
}

// TestPanickedRLPlanReturnsNoKit is checkPanicked on the training kits: RL,
// random and annealing plans.
func TestPanickedRLPlanReturnsNoKit(t *testing.T) {
	checkPanicked(t, trainingRows)
}

// bertPlans are the plans of BERT/edge36 that TestKitPlanHeapBytes holds
// and BenchmarkPlanBERT times, each at its bench workload's budget: a
// graph's first plan, which builds the graph's entry and kit and keeps them,
// or a repeat plan, on the kit the graph's first plan built.
var bertPlans = []struct {
	opts    PlanOptions
	first   bool
	ceiling uint64 // on the bytes the plan allocates at one worker
	race    bool   // checked under -race too, whose sync.Pool drops a share of what is put back
}{
	// 10 165 296 B: the clone, context, encoding and environment it builds.
	{PlanOptions{Method: MethodZeroShot, SampleBudget: 16}, true, 10200000, true},
	// 47 416 B; 3 031 000 while every plan cloned the policy.
	{PlanOptions{Method: MethodZeroShot, SampleBudget: 16}, false, 100000, true},
	// 182 368 B; 11 160 672 while every fine-tune plan built a trainer.
	{PlanOptions{Method: MethodFineTune, SampleBudget: 32}, false, 250000, false},
	// 12 020 288 B; 12 127 744 with a clone that built its own adjacency.
	{PlanOptions{Method: MethodRL, SampleBudget: 32}, true, 12050000, false},
	// 186 000 B; 11 860 016 while every plan built its kit.
	{PlanOptions{Method: MethodRL, SampleBudget: 32}, false, 300000, false},
	// 43 168 B, scored in the simulator's pooled run memory; 7.18 MB while
	// every plan built its environment.
	{PlanOptions{Method: MethodSA, SampleBudget: 64, UseSimulator: true}, false, 100000, false},
}

// TestKitPlanHeapBytes holds what each of bertPlans allocates through the
// Planner at one worker: a first plan after a plan that memoized the
// graph's layout and digest, on empty stores; a repeat plan (seed 2) on the
// kit the graph's first plan (seed 1) built and a plan of seed 3 handed
// back. Either leaves one kit in its graph's entry.
func TestKitPlanHeapBytes(t *testing.T) {
	for _, c := range bertPlans {
		t.Run(fmt.Sprintf("%s/first=%t", rowName(c.opts), c.first), func(t *testing.T) {
			if raceEnabled && !c.race {
				t.Skip("BERT plans; the race detector checks no allocation")
			}
			pl, policy := deployedPlanner(t)
			g := BERT()
			plan := func(seed int64) { planReused(t, pl, g, withSeed(c.opts, seed)) }
			withWorkers(1, func() {
				plan(1) // the graph's memoized layout and digest, its entry and kit
				seed := int64(2)
				if c.first {
					seed = 1
					pl.training = newTrainingKits()
					pl.installPolicy(policy, "")
				} else {
					plan(3)
				}
				got := allocated(func() { plan(seed) })
				t.Logf("%d bytes", got)
				if got > c.ceiling {
					t.Errorf("the plan allocates %d bytes, ceiling %d: does it build or size again what its kit keeps?", got, c.ceiling)
				}
			})
			if kits := planKits(t, pl, true)[store(c.opts.Method)]; len(kits) != 1 || len(kits[g.StructureDigest()]) != 1 {
				t.Errorf("the plan leaves %d entries in its store, want its graph's with one kit", len(kits))
			}
		})
	}
}

// TestKitWeightEstimates: the weight put gives the idle kit plans of
// BERT/edge36 handed back is within 1 % of what the kit keeps — the
// difference the live heap makes when its entry lets it go — so that each
// store's byte bound counts the kits it owns.
func TestKitWeightEstimates(t *testing.T) {
	for _, c := range []struct {
		name    string
		methods []Method
		sim     bool
		workers int
	}{
		{"zeroshot", []Method{MethodZeroShot}, false, 1},                       // an environment, a clone with sized scratch
		{"finetune", []Method{MethodFineTune}, false, 2},                       // and a trainer with a rollout worker
		{"search", []Method{MethodRandom, MethodSA}, true, parallel.Default()}, // the solver's tables, the annealing matrix
	} {
		t.Run(c.name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("the race detector checks no estimate")
			}
			pl, _ := deployedPlanner(t)
			g := BERT()
			withWorkers(c.workers, func() {
				for _, m := range c.methods {
					planReused(t, pl, g, PlanOptions{Method: m, SampleBudget: 16, Seed: 1, UseSimulator: c.sim})
				}
			})
			idle := idleKits(t, pl, c.methods[0], g)
			if len(idle) != 1 {
				t.Fatalf("%d idle kits, want 1", len(idle))
			}
			est, key := uint64(idle[0].bytes), g.StructureDigest()
			e, _ := pl.training.get(key)
			d, _ := pl.snapshotPolicy().deployments.get(key)
			with := liveHeap()
			if store(c.methods[0]) == 0 {
				e.take()
			} else {
				d.take()
			}
			kept := with - liveHeap()
			runtime.KeepAlive(pl) // and with it the installed policy and the entries
			if est < kept*99/100 || est > kept*101/100 {
				t.Errorf("at %d workers a BERT kit weighs %d bytes, it keeps %d", c.workers, est, kept)
			}
		})
	}
}

// BenchmarkPlanBERT times each of bertPlans: a first plan on a new planner
// each op, and a repeat plan on the kit the graph's first plan built, its
// seeds cycling over 1-3 — zero-shot's a new one each op.
func BenchmarkPlanBERT(b *testing.B) {
	for _, c := range bertPlans {
		b.Run(fmt.Sprintf("%s/first=%t", rowName(c.opts), c.first), func(b *testing.B) {
			pl, _ := deployedPlanner(b)
			g := BERT()
			plan := func(seed int64) { planReused(b, pl, g, withSeed(c.opts, seed)) }
			if !c.first {
				plan(1) // the graph's entry and kit
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := int64(i%3 + 1)
				if c.opts.Method == MethodZeroShot {
					seed = int64(i + 2)
				}
				if c.first {
					b.StopTimer()
					pl, _ = deployedPlanner(b)
					g = BERT()
					b.StartTimer()
				}
				plan(seed)
			}
		})
	}
}
