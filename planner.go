package mcmpart

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mcmpart/internal/analyze"
	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/eval"
	"mcmpart/internal/graph"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/pretrain"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
)

// Verdict is the rich outcome of evaluating one partition in one evaluation
// environment (throughput, validity, failure reason, peak SRAM utilization).
// Both the analytical cost model and the hardware simulator report through
// it.
type Verdict = eval.Verdict

// ProgressEvent is one observation of a running plan or pre-training run:
// the cumulative number of candidate evaluations consumed and the
// best-so-far improvement over the greedy baseline.
type ProgressEvent struct {
	// Samples is the number of evaluations consumed so far.
	Samples int
	// BestImprovement is the best-so-far throughput normalized to the
	// greedy heuristic on the graph being reported.
	BestImprovement float64
}

// ProgressFunc streams ProgressEvents. Callbacks run synchronously on the
// goroutine driving the search; keep them fast.
type ProgressFunc func(ProgressEvent)

// PlanOptions configure one Planner.Plan call. The JSON tags are the wire
// form of a request's "options" (PlanOptionsWire is this type): a field
// added here is on the wire, and must be in planCacheKey
// (TestCacheKeyCoversEveryOption).
type PlanOptions struct {
	// Method defaults to MethodRL. MethodZeroShot and MethodFineTune
	// require a policy (Pretrain or LoadPolicy first).
	Method Method `json:"method,omitempty"`
	// SampleBudget bounds the number of candidate evaluations for the
	// search-based methods (default 200; ignored by MethodGreedy).
	SampleBudget int `json:"sample_budget,omitempty"`
	// Seed makes runs reproducible. Seed 0 is remapped to 1 (the
	// documented default), so the zero value of PlanOptions and an
	// explicit Seed: 1 are the same plan.
	Seed int64 `json:"seed,omitempty"`
	// UseSimulator evaluates candidates on the hardware simulator
	// (including the dynamic memory constraint) instead of the faster
	// analytical cost model.
	UseSimulator bool `json:"use_simulator,omitempty"`
	// SeedFromAnalytic primes the search-based methods with the analytic
	// fast path's plan as their first sample, so the search starts from a
	// strong valid incumbent instead of from nothing. Best-effort: when
	// the analysis finds no layout the search runs unseeded. Ignored by
	// MethodGreedy and MethodAnalytic (canonicalized to false).
	SeedFromAnalytic bool `json:"seed_from_analytic,omitempty"`
	// Progress, when set, streams (samples, best-so-far improvement)
	// after every evaluated candidate. It is not serializable; JobStatus
	// is its polling equivalent over HTTP.
	Progress ProgressFunc `json:"-"`
}

// normalized validates the options and applies the documented defaults
// (Method "" → MethodRL, SampleBudget 0 → 200, Seed 0 → 1). A zero value
// asks for the default; explicitly out-of-range values — a negative budget,
// a negative seed, an unknown method — are caller bugs and return
// descriptive errors instead of silently planning something else. The
// normalized form is also the canonical shape of the plan-cache key: every
// PlanOptions that normalizes identically must plan identically.
func (o PlanOptions) normalized() (PlanOptions, error) {
	if o.Method == "" {
		o.Method = MethodRL
	}
	switch o.Method {
	case MethodGreedy, MethodRandom, MethodSA, MethodRL, MethodZeroShot, MethodFineTune, MethodAnalytic:
	default:
		return o, fmt.Errorf("%w: unknown method %q", ErrInvalidRequest, o.Method)
	}
	if o.Method == MethodGreedy || o.Method == MethodAnalytic {
		// Neither method searches, so there is nothing to seed; canonical
		// form keeps the plan-cache key stable across the flag.
		o.SeedFromAnalytic = false
	}
	if o.SampleBudget < 0 {
		return o, fmt.Errorf("%w: SampleBudget %d is negative; use 0 for the default (200)", ErrInvalidRequest, o.SampleBudget)
	}
	if o.SampleBudget == 0 {
		o.SampleBudget = 200
	}
	if o.Seed < 0 {
		return o, fmt.Errorf("%w: Seed %d is negative; seeds are non-negative (0 selects the default seed 1)", ErrInvalidRequest, o.Seed)
	}
	o.Seed = seedOrDefault(o.Seed)
	return o, nil
}

// Validate reports whether the options are well-formed without planning
// anything. It applies the same rules Plan does.
func (o PlanOptions) Validate() error {
	_, err := o.normalized()
	return err
}

// PretrainOptions configure Planner.Pretrain, the paper's Sec. 4.3
// pipeline: PPO over a corpus of training graphs against the analytical
// cost model, with a validation worker replaying checkpoints to pick the
// transferable policy.
type PretrainOptions struct {
	// TotalSamples is the training budget summed over all training graphs
	// (default 2000; paper: 20000).
	TotalSamples int
	// Checkpoints is how many evenly spaced checkpoints the training
	// worker emits for the validation worker to score (default 10;
	// paper: 200).
	Checkpoints int
	// ValidationSamples is the per-graph zero-shot budget spent scoring
	// each checkpoint (default 8).
	ValidationSamples int
	// ValidationGraphs is how many graphs from the tail of the corpus
	// slice are held out for validation (default: one fifth, at least 1).
	ValidationGraphs int
	// Seed derives all randomness. Seed 0 is remapped to 1.
	Seed int64
	// FullScale uses the paper's 8x128 network and PPO hyper-parameters
	// instead of the laptop-scale defaults.
	FullScale bool
	// Progress, when set, streams (cumulative training samples,
	// best-so-far improvement on the absorbing graph).
	Progress ProgressFunc
}

// normalized validates the options and applies the documented defaults.
// Zero values ask for defaults; negative budgets, checkpoint counts,
// validation budgets, or seeds are caller bugs and return descriptive
// errors instead of silently training nothing.
func (o PretrainOptions) normalized() (PretrainOptions, error) {
	if o.TotalSamples < 0 {
		return o, fmt.Errorf("%w: TotalSamples %d is negative; use 0 for the default (2000)", ErrInvalidRequest, o.TotalSamples)
	}
	if o.TotalSamples == 0 {
		o.TotalSamples = 2000
	}
	if o.Checkpoints < 0 {
		return o, fmt.Errorf("%w: Checkpoints %d is negative; use 0 for the default (10)", ErrInvalidRequest, o.Checkpoints)
	}
	if o.Checkpoints == 0 {
		// Default 10, capped so a small explicit TotalSamples still works.
		o.Checkpoints = 10
		if o.Checkpoints > o.TotalSamples {
			o.Checkpoints = o.TotalSamples
		}
	} else if o.Checkpoints > o.TotalSamples {
		return o, fmt.Errorf("%w: %d checkpoints cannot be cut from %d total samples", ErrInvalidRequest, o.Checkpoints, o.TotalSamples)
	}
	if o.ValidationSamples < 0 {
		return o, fmt.Errorf("%w: ValidationSamples %d is negative; use 0 for the default (8)", ErrInvalidRequest, o.ValidationSamples)
	}
	if o.ValidationSamples == 0 {
		o.ValidationSamples = 8
	}
	if o.ValidationGraphs < 0 {
		return o, fmt.Errorf("%w: ValidationGraphs %d is negative; use 0 for the default (one fifth of the corpus)", ErrInvalidRequest, o.ValidationGraphs)
	}
	if o.Seed < 0 {
		return o, fmt.Errorf("%w: Seed %d is negative; seeds are non-negative (0 selects the default seed 1)", ErrInvalidRequest, o.Seed)
	}
	o.Seed = seedOrDefault(o.Seed)
	return o, nil
}

// Validate reports whether the options are well-formed without training
// anything. It applies the same rules Pretrain does.
func (o PretrainOptions) Validate() error {
	_, err := o.normalized()
	return err
}

// PretrainReport summarizes a Pretrain run.
type PretrainReport struct {
	// Checkpoints is how many checkpoints the training worker emitted.
	Checkpoints int
	// Scores are the validation rewards per checkpoint (nil when the run
	// was cancelled before validation).
	Scores []float64
	// BestIndex is the checkpoint the validation worker selected — the
	// policy now installed in the Planner.
	BestIndex int
	// TrainSamples is the number of training evaluations consumed.
	TrainSamples int
}

// Planner is a reusable planning session bound to one MCM package — the
// public surface of the paper's transferability result. Pre-train once on a
// corpus (or load a saved policy artifact), then plan any number of graphs:
// zero-shot, with fine-tuning, or with the from-scratch search methods.
//
//	pl, _ := mcmpart.NewPlanner(mcmpart.Dev8())
//	pl.Pretrain(ctx, mcmpart.CorpusGraphs(1)[:10], mcmpart.PretrainOptions{})
//	pl.SavePolicy("dev8.policy.json")
//	res, _ := pl.Plan(ctx, g, mcmpart.PlanOptions{Method: mcmpart.MethodZeroShot})
//
// Every method is safe for concurrent use: Plan and Assess read a snapshot
// of the installed policy (and clone it before mutating weights), while
// Pretrain, LoadPolicy, and SavePolicy swap or read the installed policy
// under the planner's lock. Concurrent Plan calls therefore see either the
// policy from before or after a concurrent install, never a torn state —
// the concurrency contract Service builds on (see DESIGN.md).
type Planner struct {
	pkg *Package
	// training is what RL-from-scratch, random and annealing plans keep of
	// the graphs they planned (training.go); it outlives installs, which it
	// does not depend on. rlPlans counts RL plans by the trainer they ran
	// on (kitNew, kitReused).
	training *planCache[[32]byte, *trainingKits]
	rlPlans  [2]atomic.Uint64

	// mu guards the installed policy. The policy value itself is immutable
	// once installed: planning methods clone it before any weight update.
	mu        sync.RWMutex
	installed policySnapshot // guarded by mu
}

// policySnapshot is one reading of the installed policy: the values an
// install swaps together. A plan runs under exactly one of these from key
// to result (the Service takes it at admission, Plan on entry), and every
// report of what is installed (Stats, Policies, GET /v1/policies) is built
// from exactly one.
type policySnapshot struct {
	policy *rl.Policy // nil when none is installed
	fp     string     // rl.PolicyFingerprint(policy), "" when none
	// path is the registry artifact the policy was installed from, "" for
	// one installed by Pretrain or LoadPolicy.
	path string
	// ftPPO is the PPO configuration MethodFineTune continues training
	// with, aligned with the scale the policy was pre-trained at.
	ftPPO rl.PPOConfig
	// deployments are what the deployed-policy methods keep of the graphs
	// they planned under policy's weights; empty when none is installed.
	deployments *planCache[[32]byte, *deployment]
}

// NewPlanner builds a planning session for the package. The package is
// validated once here; every subsequent call reuses it.
func NewPlanner(pkg *Package) (*Planner, error) {
	if pkg == nil {
		return nil, fmt.Errorf("%w: nil package", ErrInvalidRequest)
	}
	if err := pkg.Validate(); err != nil {
		return nil, err
	}
	return &Planner{pkg: pkg, training: newTrainingKits(), installed: policySnapshot{deployments: newDeployments()}}, nil
}

// Package returns the package this planner is bound to.
func (pl *Planner) Package() *Package { return pl.pkg }

// HasPolicy reports whether a pre-trained policy is installed (via Pretrain
// or LoadPolicy), enabling MethodZeroShot and MethodFineTune.
func (pl *Planner) HasPolicy() bool { return pl.snapshotPolicy().policy != nil }

// PolicyFingerprint returns a stable content hash of the installed policy
// (configuration plus every weight), or "" when no policy is installed.
// Plans by the deployed-policy methods are a pure function of (graph,
// package, normalized options, policy fingerprint) — the contract the plan
// cache keys on.
func (pl *Planner) PolicyFingerprint() string { return pl.snapshotPolicy().fp }

// installPolicy swaps the installed policy under the planner's lock. The
// fine-tune PPO configuration is derived from the policy's network shape
// (full-scale network → full-scale PPO), so the pair MethodFineTune runs
// with is a pure function of the installed policy — the property the plan
// cache's policy-fingerprint key relies on. Reinstalling the registry
// artifact that is installed, with the same weights, keeps the installed
// snapshot and its deployments; any other install starts an empty set.
func (pl *Planner) installPolicy(policy *rl.Policy, path string) {
	snap := policySnapshot{policy: policy, fp: rl.PolicyFingerprint(policy), path: path, ftPPO: ftPPOFor(policy), deployments: newDeployments()}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if path != "" && path == pl.installed.path && snap.fp == pl.installed.fp {
		return
	}
	snap.deployments.evictions = pl.installed.deployments.evictions
	pl.installed = snap
}

// ftPPOFor picks the PPO configuration MethodFineTune continues training a
// policy with: the paper-scale configuration for policies with the
// paper-scale network, the quick configuration otherwise.
func ftPPOFor(policy *rl.Policy) rl.PPOConfig {
	full := rl.DefaultConfig(policy.Cfg.Chips)
	if policy.Cfg.Hidden == full.Hidden &&
		policy.Cfg.SAGELayers == full.SAGELayers &&
		policy.Cfg.Iterations == full.Iterations {
		return rl.DefaultPPOConfig()
	}
	return rl.QuickPPOConfig()
}

// snapshotPolicy returns the installed policy, its fingerprint, its
// provenance and its fine-tune configuration as one consistent reading.
func (pl *Planner) snapshotPolicy() policySnapshot {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return pl.installed
}

// freshPolicyConfig returns the network shape for a from-scratch policy on
// this package: the paper's exact shape on homogeneous packages, widened
// with per-chip capacity features on heterogeneous ones.
func (pl *Planner) freshPolicyConfig(fullScale bool) rl.Config {
	cfg := rl.QuickConfig(pl.pkg.Chips)
	if fullScale {
		cfg = rl.DefaultConfig(pl.pkg.Chips)
	}
	if pl.pkg.Heterogeneous() {
		cfg.ChipFeatures = true
	}
	return cfg
}

// graphContext builds the encoder inputs a policy with cfg needs on this
// package.
func (pl *Planner) graphContext(g *Graph, cfg rl.Config) *rl.GraphContext {
	if cfg.ChipFeatures {
		return rl.NewGraphContextForPackage(g, pl.pkg)
	}
	return rl.NewGraphContext(g)
}

// evaluator returns the evaluation environment a plan runs against: the
// hardware simulator under the (already defaulted) seed, or the analytical
// cost model.
func (pl *Planner) evaluator(useSimulator bool, seed int64) eval.Evaluator {
	if useSimulator {
		return hwsim.New(pl.pkg, hwsim.Options{Seed: seed})
	}
	return costmodel.New(pl.pkg)
}

// Assess evaluates one partition of g in the environment opts select
// (simulator with opts.Seed when opts.UseSimulator, analytical cost model
// otherwise) and returns the rich verdict.
func (pl *Planner) Assess(g *Graph, p Partition, opts PlanOptions) Verdict {
	return pl.evaluator(opts.UseSimulator, seedOrDefault(opts.Seed)).Assess(g, p)
}

// baseline evaluates the greedy heuristic every search method normalizes
// against, erroring (with the evaluator's reason) when it is invalid.
func (pl *Planner) baseline(g *Graph, ev eval.Evaluator) (Partition, Verdict, error) {
	greedy := search.GreedyPackage(g, pl.pkg)
	base := ev.Assess(g, greedy)
	if !base.Valid || base.Throughput <= 0 {
		reason := ""
		if base.FailReason != "" {
			reason = " (" + base.FailReason + ")"
		}
		return nil, base, fmt.Errorf("%w: greedy baseline is invalid on %s%s; the graph may not fit the package",
			ErrNoPlan, g.Name(), reason)
	}
	return greedy, base, nil
}

// buildEnv wires a graph to a partitioner, an evaluator, and the baseline
// throughput — the environment every search method runs in.
func (pl *Planner) buildEnv(g *Graph, gctx *rl.GraphContext, ev eval.Evaluator, baseTh float64) (*rl.Env, error) {
	pr, err := cpsolver.NewAutoPkg(g, pl.pkg, cpsolver.Options{})
	if err != nil {
		return nil, err
	}
	env := rl.NewEnv(gctx, pr, ev, baseTh)
	env.PartFactory = func() (cpsolver.Partitioner, error) {
		return cpsolver.NewAutoPkg(g, pl.pkg, cpsolver.Options{})
	}
	return env, nil
}

// newEnv is baseline + buildEnv: the factory shape Pretrain consumes.
func (pl *Planner) newEnv(g *Graph, gctx *rl.GraphContext, ev eval.Evaluator) (*rl.Env, error) {
	_, base, err := pl.baseline(g, ev)
	if err != nil {
		return nil, err
	}
	return pl.buildEnv(g, gctx, ev, base.Throughput)
}

// Plan searches for a high-throughput valid partition of g on the
// planner's package.
//
// Cancelling or timing out ctx stops the search promptly; if any valid
// partition was found by then, Plan returns it (best-so-far) together with
// ctx.Err(), so callers can both observe the deadline and keep the work
// already paid for.
func (pl *Planner) Plan(ctx context.Context, g *Graph, opts PlanOptions) (*Result, error) {
	opts, err := normalizeRequest(g, opts)
	if err != nil {
		return nil, err
	}
	res, _, err := pl.plan(ctx, g, opts, pl.snapshotPolicy())
	return res, err
}

// normalizeRequest is the front door every plan passes exactly once —
// Planner.Plan for a library call, Service.Submit for a served one: the
// graph must be there and valid and the options well-formed, and they come
// back with every default resolved.
func normalizeRequest(g *Graph, opts PlanOptions) (PlanOptions, error) {
	if g == nil {
		return opts, fmt.Errorf("%w: nil graph", ErrInvalidRequest)
	}
	if err := g.Validate(); err != nil {
		return opts, err
	}
	return opts.normalized()
}

// plan is Plan behind the front door, on a request normalizeRequest passed,
// under a given reading of the installed policy: the Service passes the one
// its request was keyed under, so the plan it stores is the plan its key
// names whatever is installed in the meantime. reused reports that a
// deployed-policy method planned from a deployment an earlier plan of the
// graph built under that reading.
func (pl *Planner) plan(ctx context.Context, g *Graph, opts PlanOptions, installed policySnapshot) (res *Result, reused bool, err error) {
	ev := pl.evaluator(opts.UseSimulator, opts.Seed)

	if opts.Method.usesPolicy() && installed.policy == nil {
		return nil, false, fmt.Errorf("%w: method %q needs Pretrain or LoadPolicy first", ErrPolicyRequired, opts.Method)
	}

	greedy, base, err := pl.baseline(g, ev)
	if err != nil {
		return nil, false, err
	}
	if opts.Method == MethodGreedy {
		if opts.Progress != nil {
			opts.Progress(ProgressEvent{Samples: 1, BestImprovement: 1})
		}
		return &Result{Partition: greedy, Throughput: base.Throughput, Improvement: 1, Samples: 1, History: []float64{1}}, false, nil
	}
	if opts.Method == MethodAnalytic {
		res, err := pl.planAnalytic(g, ev, greedy, base, opts)
		return res, false, err
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	var env *rl.Env
	var policy *rl.Policy // the deployed-policy methods' own clone of the installed policy
	var d *deployment
	var k kit
	var put func(kit) // hands k back to the entry it came from
	if opts.Method.usesPolicy() {
		// A policy's scratch serves one caller, and fine-tuning updates
		// weights: each plan runs on a clone of its own, and the planner's
		// installed policy stays the pristine pre-trained artifact. The
		// graph's context and encoding come from its deployment, built by
		// the first plan of the graph under these weights, and the
		// environment and a zero-shot plan's clone from one of its kits; a
		// fine-tune plan trains a fresh clone and leaves the kit's as it is.
		if d, k, reused, err = pl.deploy(g, installed, ev, base.Throughput); err != nil {
			return nil, false, err
		}
		env, policy, put = k.env, k.policy, d.put
		if opts.Method == MethodFineTune {
			policy = installed.policy.Clone()
		}
	} else {
		// RL, random search and annealing run on one of the graph's
		// training kits; an RL plan's policy, trainer and rollout workers
		// are the kit's too, its weights drawn from rng as a fresh
		// policy's are (readyTrainer, below).
		var e *trainingKits
		if e, k, err = pl.takeTrainingKit(g, ev, base.Throughput); err != nil {
			return nil, false, err
		}
		env, put = k.env, e.put
	}
	if opts.Progress != nil {
		progress := opts.Progress
		env.OnSample = func(samples int, best float64) {
			progress(ProgressEvent{Samples: samples, BestImprovement: best})
		}
	}
	if opts.SeedFromAnalytic {
		// Best-effort: prime the search with the fast path's plan as its
		// first sample (counted against the sample budget). An infeasible
		// analysis just leaves the search unseeded.
		if p, err := pl.analyticPartition(g); err == nil {
			env.Prime(p)
		}
	}
	var runErr error
	switch opts.Method {
	case MethodRandom:
		runErr = search.Random(ctx, env, opts.SampleBudget, rng)
	case MethodSA:
		runErr = search.Anneal(ctx, env, opts.SampleBudget, search.SAConfig{}, rng)
	case MethodRL:
		pl.readyTrainer(&k, rng)
		_, runErr = k.trainer.TrainUntil(ctx, []*rl.Env{env}, opts.SampleBudget)
	case MethodZeroShot:
		// The deployed-policy methods drive the solver in SAMPLE mode
		// (deploy set it), the configuration the policy was pre-trained
		// under (Sec. 5.1's choice for the transfer experiments).
		runErr = d.base.ZeroShot(ctx, policy, env, opts.SampleBudget, rng)
	case MethodFineTune:
		_, runErr = rl.FineTune(ctx, policy, env, installed.ftPPO, opts.SampleBudget, rng)
	default:
		// normalized() already rejected unknown methods.
		return nil, false, fmt.Errorf("%w: unknown method %q", ErrInvalidRequest, opts.Method)
	}
	if env.Best != nil {
		// The environment is the kit's, and the next plan on it overwrites
		// its best partition: the Result takes a copy.
		res = &Result{
			Partition:   env.Best.Clone(),
			Throughput:  env.BestThroughput,
			Improvement: env.BestImprovement(),
			Samples:     env.Samples,
			History:     append([]float64(nil), env.History...),
			FailCounts:  env.FailCounts,
		}
	}
	samples := env.Samples
	// Only a plan that returns hands its kit back: one that panicked
	// mid-sample may have left its solver's tables or its scratch half
	// built, and is dropped with its kit, which its store stopped counting
	// when the plan took it.
	put(k)
	if res == nil {
		if runErr != nil {
			return nil, reused, runErr
		}
		return nil, reused, fmt.Errorf("%w within %d samples", ErrNoPlan, samples)
	}
	return res, reused, runErr
}

// analyticPartition runs the static-analysis fast path on this planner's
// package: a constructed contiguous layout, with no candidate evaluation.
func (pl *Planner) analyticPartition(g *Graph) (Partition, error) {
	a, err := analyze.New(g, pl.pkg)
	if err != nil {
		return nil, err
	}
	p, _, err := a.Plan(analyze.Options{})
	return p, err
}

// planAnalytic is MethodAnalytic: the fast path's plan, assessed once in the
// selected evaluation environment. A plan the environment rejects (only
// possible under the simulator's dynamic memory model — the static
// constraints hold by construction) falls back to the greedy baseline, with
// the rejection recorded in FailCounts.
func (pl *Planner) planAnalytic(g *Graph, ev eval.Evaluator, greedy Partition, base Verdict, opts PlanOptions) (*Result, error) {
	p, err := pl.analyticPartition(g)
	if err != nil {
		return nil, err
	}
	v := ev.Assess(g, p)
	if !v.Valid || v.Throughput <= 0 {
		reason := v.FailReason
		if reason == "" {
			reason = "evaluator rejected analytic plan"
		}
		if opts.Progress != nil {
			opts.Progress(ProgressEvent{Samples: 2, BestImprovement: 1})
		}
		return &Result{
			Partition:   greedy,
			Throughput:  base.Throughput,
			Improvement: 1,
			Samples:     2,
			History:     []float64{0, 1},
			FailCounts:  map[string]int{reason: 1},
		}, nil
	}
	imp := v.Throughput / base.Throughput
	if opts.Progress != nil {
		opts.Progress(ProgressEvent{Samples: 1, BestImprovement: imp})
	}
	return &Result{
		Partition:   p,
		Throughput:  v.Throughput,
		Improvement: imp,
		Samples:     1,
		History:     []float64{imp},
	}, nil
}

// Pretrain runs the paper's pre-training pipeline (Sec. 4.3, Figure 4) on a
// corpus of graphs against the analytical cost model and installs the
// validation-selected policy in the planner, enabling MethodZeroShot and
// MethodFineTune. The last opts.ValidationGraphs graphs of the slice are
// held out for the validation worker; the rest train.
//
// Cancelling ctx stops training at the next iteration boundary and installs
// the best-so-far policy (the most recent checkpoint), returning the report
// together with ctx.Err().
func (pl *Planner) Pretrain(ctx context.Context, graphs []*Graph, opts PretrainOptions) (*PretrainReport, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	for i, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("%w: pre-training corpus graph %d is nil", ErrInvalidRequest, i)
		}
	}
	if opts.ValidationGraphs == 0 {
		opts.ValidationGraphs = len(graphs) / 5
		if opts.ValidationGraphs < 1 {
			opts.ValidationGraphs = 1
		}
	}
	if len(graphs) < 2 || opts.ValidationGraphs >= len(graphs) {
		return nil, fmt.Errorf("%w: pre-training needs at least one training and one validation graph (%d graphs, %d held out)",
			ErrInvalidRequest, len(graphs), opts.ValidationGraphs)
	}
	train := graphs[:len(graphs)-opts.ValidationGraphs]
	validation := graphs[len(graphs)-opts.ValidationGraphs:]

	policyCfg := pl.freshPolicyConfig(opts.FullScale)
	ppoCfg := rl.QuickPPOConfig()
	if opts.FullScale {
		ppoCfg = rl.DefaultPPOConfig()
	}
	model := costmodel.New(pl.pkg)
	factory := func(g *graph.Graph) (*rl.Env, error) {
		env, err := pl.newEnv(g, pl.graphContext(g, policyCfg), model)
		if err != nil {
			return nil, err
		}
		// Pre-training drives the solver in SAMPLE mode (Algorithm 1),
		// the experiments' configuration for the transfer methods.
		env.UseSampleMode = true
		return env, nil
	}
	cfg := pretrain.Config{
		Policy:            policyCfg,
		PPO:               ppoCfg,
		TotalSamples:      opts.TotalSamples,
		Checkpoints:       opts.Checkpoints,
		ValidationSamples: opts.ValidationSamples,
		Seed:              opts.Seed,
	}
	if opts.Progress != nil {
		progress := opts.Progress
		cfg.Progress = func(samples int, best float64) {
			progress(ProgressEvent{Samples: samples, BestImprovement: best})
		}
	}
	res, err := pretrain.Run(ctx, train, validation, factory, cfg)
	if res == nil {
		return nil, err
	}
	policy := rl.NewPolicy(policyCfg, nil) // Restore overwrites every weight
	if rerr := policy.Restore(res.Best()); rerr != nil {
		return nil, fmt.Errorf("mcmpart: restoring selected checkpoint: %w", rerr)
	}
	// installPolicy derives the fine-tune PPO scale from the policy's
	// network shape, which matches opts.FullScale by construction.
	pl.installPolicy(policy, "")
	report := &PretrainReport{
		Checkpoints: len(res.Checkpoints),
		Scores:      res.Scores,
		BestIndex:   res.BestIndex,
	}
	for _, s := range res.TrainStats {
		report.TrainSamples += s.Samples
	}
	return report, err
}

// SavePolicy persists the installed policy as a versioned artifact bound to
// this planner's package (weights + network shape + package fingerprint).
func (pl *Planner) SavePolicy(path string) error {
	policy := pl.snapshotPolicy().policy
	if policy == nil {
		return fmt.Errorf("%w: nothing to save; run Pretrain or LoadPolicy first", ErrPolicyRequired)
	}
	return rl.SaveArtifact(path, policy, pl.pkg)
}

// LoadPolicy installs a policy from an artifact written by SavePolicy. The
// artifact's package fingerprint must match this planner's package — a
// policy pre-trained for a different package (different chip count, SRAM,
// topology, …) is rejected with a descriptive error rather than silently
// driving plans it was never trained for.
func (pl *Planner) LoadPolicy(path string) error {
	policy, err := rl.LoadArtifact(path, pl.pkg)
	if err != nil {
		return err
	}
	pl.installPolicy(policy, "")
	return nil
}
