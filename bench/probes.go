package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mcmpart"
	"mcmpart/internal/analyze"
	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/eval"
	"mcmpart/internal/gnn"
	"mcmpart/internal/graph"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/mat"
	"mcmpart/internal/nn"
	"mcmpart/internal/parallel"
	"mcmpart/internal/plancache"
	"mcmpart/internal/rl"
	"mcmpart/internal/search"
)

// Probes time calls into each layer's public functions, from the benchmark's
// own files, after the measured phase of a traced run. A probe is the median
// of up to probeCalls calls; it stops early once probeBudget is spent (never
// before probeMinCalls), which is what keeps the second-long layers — a PPO
// iteration, a pre-training run — inside the run's time limit.
const (
	probeCalls    = 20
	probeMinCalls = 3
	probeBudget   = 250 * time.Millisecond
)

type prober struct {
	tr  *tracer
	out map[string]float64
}

// timed records the median duration of fn in ms as metric name.
func (p *prober) timed(name string, fn func()) float64 {
	p.out[name] = p.median(name, probeCalls, fn)
	return p.out[name]
}

// median times up to `calls` calls of fn under span `name` and returns the
// median in ms without recording a metric.
func (p *prober) median(name string, calls int, fn func()) float64 {
	parent := p.tr.begin("probe."+name, 0)
	var xs []float64
	began := time.Now()
	for i := 0; i < calls && (i < min(probeMinCalls, calls) || time.Since(began) < probeBudget); i++ {
		s := p.tr.begin(name, parent)
		t := time.Now()
		fn()
		xs = append(xs, ms(time.Since(t)))
		p.tr.end(s)
	}
	p.tr.end(parent)
	return median(xs)
}

// runProbes fills in every per-layer metric that is not read off the
// measured phase itself. BERT on edge36 is the input of the planning layers
// on every workload; the serving layers see the workload's own request:
// the first 10k-node graph on serve-warm, BERT elsewhere.
func runProbes(ctx context.Context, cfg config, w workload, tr *tracer) (map[string]float64, error) {
	p := &prober{tr: tr, out: map[string]float64{}}
	pkg := mcmpart.Edge36()
	rng := rand.New(rand.NewSource(1))

	var bert, big *mcmpart.Graph
	p.timed("workload.bert_build_ms", func() { bert = mcmpart.BERT() })
	nodes := w.sizing.bigNodes
	if nodes == 0 {
		nodes = 10000
	}
	p.timed("randgraph.generate_ms", func() { big = bigGraph(0, nodes) })

	reqGraph, reqOpts := bert, mcmpart.PlanOptionsWire{Method: mcmpart.MethodAnalytic}
	if w.name == "serve-warm" {
		reqGraph = big
	}
	if err := p.serving(ctx, pkg, reqGraph, reqOpts); err != nil {
		return nil, err
	}
	if err := p.planning(ctx, pkg, bert, big, rng); err != nil {
		return nil, err
	}
	p.infrastructure(cfg)
	return p.out, nil
}

// serving probes httpapi, graph and service on one request.
func (p *prober) serving(ctx context.Context, pkg *mcmpart.Package, g *mcmpart.Graph, opts mcmpart.PlanOptionsWire) error {
	st, err := newStack(pkg)
	if err != nil {
		return err
	}
	defer st.close()
	body := planBody(g, opts)
	p.out["httpapi.req_kb"] = float64(len(body)) / 1e3

	// Every decode yields a fresh *Graph — what the handler pays per request
	// — and each fresh graph gives one first-call fingerprint sample.
	var decoded []*mcmpart.Graph
	p.timed("httpapi.decode_ms", func() {
		var wire mcmpart.PlanRequestWire
		if err := json.Unmarshal(body, &wire); err == nil {
			decoded = append(decoded, wire.Graph)
		}
	})
	if len(decoded) == 0 {
		return fmt.Errorf("request body does not decode")
	}
	p.timed("graph.validate_ms", func() { _ = decoded[0].Validate() })
	var first, memo, allocs []float64
	var m0, m1 runtime.MemStats
	began := time.Now()
	for i, d := range decoded {
		if i >= probeMinCalls && time.Since(began) > probeBudget {
			break
		}
		runtime.ReadMemStats(&m0)
		t := time.Now()
		_ = d.Fingerprint()
		first = append(first, ms(time.Since(t)))
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/1e3)
		t = time.Now()
		_ = d.Fingerprint()
		memo = append(memo, us(time.Since(t)))
	}
	p.out["graph.fingerprint_ms"] = median(first)
	p.out["graph.fingerprint_allocs_k"] = median(allocs)
	p.out["graph.fingerprint_memo_us"] = median(memo)

	// The hit path in-process: fingerprint memoized, so what is left is
	// Validate + lookup + clone + job bookkeeping.
	plan := opts.Options()
	filled, err := st.svc.Plan(ctx, g, plan)
	if err != nil {
		return fmt.Errorf("probe plan: %w", err)
	}
	p.timed("service.hit_ms", func() { _, _ = st.svc.Plan(ctx, g, plan) })

	// The miss path's overhead: the same cold plan through the service
	// (queue, worker, cache put) and by the bare planner, in pairs; distinct
	// seeds make distinct cache keys.
	var over []float64
	for seed := int64(101); seed <= 100+probeCalls; seed++ {
		o := plan
		o.Seed = seed
		s := p.tr.begin("service.miss", 0)
		t := time.Now()
		_, _ = st.svc.Plan(ctx, g, o)
		cold := time.Since(t)
		p.tr.end(s)
		t = time.Now()
		_, _ = st.svc.Planner().Plan(ctx, g, o)
		over = append(over, ms(cold-time.Since(t)))
	}
	p.out["service.miss_overhead_ms"] = median(over)

	// Known defect, recorded not hidden: a hit for an isomorphic graph whose
	// nodes arrive in another order returns the first submitter's partition
	// un-remapped, so it does not validate against the second graph.
	valid := 0
	for k := 0; k < 5; k++ {
		pg := permuted(g, int64(k+1))
		res, err := st.svc.Plan(ctx, pg, plan)
		if err == nil && res.Partition.ValidateOn(pg, pkg) == nil {
			valid++
		}
	}
	p.out["service.permuted_hit_valid_ratio"] = float64(valid) / 5

	var buf bytes.Buffer
	p.timed("httpapi.encode_ms", func() {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", " ") // as the handler's writeJSON does
		_ = enc.Encode(mcmpart.PlanResponse{
			Result: &mcmpart.ResultWire{
				Partition: filled.Partition, Throughput: filled.Throughput, Improvement: filled.Improvement,
				Samples: filled.Samples, History: filled.History, FailCounts: filled.FailCounts,
			},
			Cached:           true,
			GraphFingerprint: g.Fingerprint(),
		})
	})
	p.out["httpapi.resp_kb"] = float64(buf.Len()) / 1e3

	p.timed("httpapi.roundtrip_floor_ms", func() {
		resp, err := st.client.Get(st.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	})
	p.timed("telemetry.scrape_ms", func() { _ = st.svc.Metrics().WritePrometheus(io.Discard) })
	return nil
}

// permuted returns a graph isomorphic to g whose nodes are inserted in a
// different order (old ID i becomes perm[i]).
func permuted(g *mcmpart.Graph, seed int64) *mcmpart.Graph {
	perm := rand.New(rand.NewSource(seed)).Perm(g.NumNodes())
	nodes := make([]graph.Node, g.NumNodes())
	for _, n := range g.Nodes() {
		nodes[perm[n.ID]] = n
	}
	out := graph.New(g.Name())
	for _, n := range nodes {
		out.AddNode(n) // AddNode assigns the new dense ID
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(perm[e.From], perm[e.To], e.Bytes)
	}
	return out
}

// planning probes planner, rl, gnn, nn, mat, cpsolver, costmodel, hwsim,
// search, analyze and pretrain.
func (p *prober) planning(ctx context.Context, pkg *mcmpart.Package, bert, big *mcmpart.Graph, rng *rand.Rand) error {
	pl, err := mcmpart.NewPlanner(pkg)
	if err != nil {
		return err
	}
	p.timed("planner.baseline_ms", func() { _, _ = pl.Plan(ctx, bert, mcmpart.PlanOptions{Method: mcmpart.MethodGreedy}) })
	p.timed("planner.analytic_ms", func() { _, _ = pl.Plan(ctx, big, mcmpart.PlanOptions{Method: mcmpart.MethodAnalytic}) })

	var an *analyze.Analysis
	p.timed("analyze.new_ms", func() { an, err = analyze.New(big, pkg) })
	if err != nil {
		return fmt.Errorf("analyze.New: %w", err)
	}
	p.timed("analyze.plan_ms", func() { _, _, _ = an.Plan(analyze.Options{}) })

	// Solver and evaluators on BERT.
	var part cpsolver.Partitioner
	p.timed("cpsolver.new_ms", func() { part, err = cpsolver.NewAutoPkg(bert, pkg, cpsolver.Options{}) })
	if err != nil {
		return fmt.Errorf("cpsolver.NewAutoPkg: %w", err)
	}
	calls, failed := 0, 0
	p.timed("cpsolver.sample_ms", func() {
		calls++
		if _, err := part.SampleMode(nil, rng); err != nil {
			failed++
		}
	})
	y := make([]int, bert.NumNodes())
	p.timed("cpsolver.fix_ms", func() {
		for i := range y {
			y[i] = rng.Intn(pkg.Chips)
		}
		calls++
		if _, err := part.FixMode(y, rng); err != nil {
			failed++
		}
	})
	p.out["cpsolver.error_ratio"] = ratio(float64(failed), float64(calls))

	greedy := search.GreedyPackage(bert, pkg)
	model, sim := costmodel.New(pkg), hwsim.New(pkg, hwsim.Options{Seed: 1})
	p.out["costmodel.assess_us"] = 1e3 * p.median("costmodel.assess", probeCalls, func() { _ = model.Assess(bert, greedy) })
	p.timed("hwsim.assess_ms", func() { _ = sim.Assess(bert, greedy) })

	// The policy stack on BERT, at the shape MethodRL trains.
	rcfg := rl.QuickConfig(pkg.Chips)
	var gctx *rl.GraphContext
	p.timed("rl.graphctx_ms", func() { gctx = rl.NewGraphContextForPackage(bert, pkg) })
	newEnv := func(ev eval.Evaluator) (*rl.Env, error) {
		pr, err := cpsolver.NewAutoPkg(bert, pkg, cpsolver.Options{})
		if err != nil {
			return nil, err
		}
		env := rl.NewEnv(gctx, pr, ev, ev.Assess(bert, greedy).Throughput)
		env.PartFactory = func() (cpsolver.Partitioner, error) { return cpsolver.NewAutoPkg(bert, pkg, cpsolver.Options{}) }
		return env, nil
	}

	policy := rl.NewPolicy(rcfg, rng)
	prev := make([]int, bert.NumNodes())
	for i := range prev {
		prev[i] = -1
	}
	dLogits := mat.New(bert.NumNodes(), pkg.Chips)
	for i := range dLogits.Data {
		dLogits.Data[i] = 1e-3
	}
	forward := p.timed("rl.forward_ms", func() { _ = policy.Forward(gctx, prev) })
	// Backward needs the caches of the Forward just before it, so the pair
	// is timed and the forward median taken off.
	pair := p.median("rl.forward_backward", probeCalls, func() { policy.Backward(policy.Forward(gctx, prev), dLogits, 1) })
	p.out["rl.backward_ms"] = max(pair-forward, 0)

	env, err := newEnv(model)
	if err != nil {
		return err
	}
	trainer := rl.NewTrainer(policy, rl.QuickPPOConfig(), rng)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	iters := 0
	p.out["rl.iterate_ms"] = p.median("rl.iterate_ms", 2, func() { iters++; trainer.Iterate([]*rl.Env{env}) })
	runtime.ReadMemStats(&m1)
	p.out["rl.iterate_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(iters)

	const samples = 16
	perSample := func(name string, ev eval.Evaluator, sampleMode bool, run func(env *rl.Env) error) error {
		var runErr error
		v := p.median(name, probeMinCalls, func() {
			env, err := newEnv(ev)
			if err != nil {
				runErr = err
				return
			}
			env.UseSampleMode = sampleMode
			if err := run(env); err != nil {
				runErr = err
			}
		})
		p.out[name] = v / samples
		return runErr
	}
	if err := perSample("rl.zeroshot_ms_per_sample", model, true, func(env *rl.Env) error {
		return rl.ZeroShot(ctx, policy.Clone(), env, samples, rng)
	}); err != nil {
		return err
	}
	if err := perSample("search.sa_ms_per_sample", sim, false, func(env *rl.Env) error {
		return search.Anneal(ctx, env, samples, search.SAConfig{}, rng)
	}); err != nil {
		return err
	}
	if err := perSample("search.random_ms_per_sample", sim, false, func(env *rl.Env) error {
		return search.Random(ctx, env, samples, rng)
	}); err != nil {
		return err
	}

	// Encoder, optimizer and the kernel at the policy head's first layer:
	// (N x (hidden+chips)) @ ((hidden+chips) x hidden), N = BERT's nodes.
	sage := gnn.NewSAGE(gnn.FeatureDim, rcfg.Hidden, rcfg.SAGELayers, rng)
	dEmb := mat.New(bert.NumNodes(), rcfg.Hidden)
	p.timed("gnn.forward_ms", func() { _ = sage.Forward(gctx.Adj, gctx.X) })
	p.timed("gnn.backward_ms", func() { sage.Backward(dEmb) })
	adam := nn.NewAdam(policy.Params(), 1e-3)
	p.timed("nn.adam_step_ms", func() { adam.Step() })

	n, k, m := bert.NumNodes(), rcfg.Hidden+pkg.Chips, rcfg.Hidden
	a, b, c := mat.New(n, k), mat.New(k, m), mat.New(n, m)
	a.XavierInit(rng)
	b.XavierInit(rng)
	c.XavierInit(rng)
	outKM, outNK := mat.New(k, m), mat.New(n, k)
	mul := p.timed("mat.mul_ms", func() { mat.Mul(c, a, b) })
	p.timed("mat.mulatb_ms", func() { mat.MulATB(outKM, a, c) })
	p.timed("mat.mulabt_ms", func() { mat.MulABT(outNK, c, b) })
	p.out["mat.mul_gmacs"] = ratio(float64(n)*float64(k)*float64(m)/1e9, mul/1e3)

	t := time.Now()
	pre, err := mcmpart.NewPlanner(pkg)
	if err != nil {
		return err
	}
	if _, err := pre.Pretrain(ctx, mcmpart.CorpusGraphs(1)[:10], zeroShotPretrain); err != nil {
		return fmt.Errorf("pretrain: %w", err)
	}
	p.out["pretrain.run_s"] = time.Since(t).Seconds()
	return nil
}

// infrastructure probes parallel and plancache. The disk tier stays off in
// the measured phases (fsync on a shared disk does not repeat); here it is
// timed for the record, under the run's output directory.
func (p *prober) infrastructure(cfg config) {
	pool := parallel.NewPool(2, 8)
	p.out["parallel.pool_dispatch_us"] = 1e3 * p.median("parallel.pool_dispatch", probeCalls, func() {
		done := make(chan struct{})
		if pool.TrySubmit(func() { close(done) }) == nil {
			<-done
		}
	})
	pool.Close()

	p.out["plancache.put_ms"], p.out["plancache.get_ms"] = 0, 0
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("plancache-%d", os.Getpid()))
	store, err := plancache.Open(dir, nil)
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KB, about one 10k-node plan
	key := 0
	p.timed("plancache.put_ms", func() { key++; _ = store.Put(fmt.Sprintf("probe-%d", key), payload) })
	got := 0
	p.timed("plancache.get_ms", func() { got++; _, _ = store.Get(fmt.Sprintf("probe-%d", min(got, key))) })
	_ = store.Flush()
}

// perLayerValues joins the probes with what the measured phase itself says
// about service, planner, process and host.
func (r *result) perLayerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for k, x := range r.probes {
		v[k] = x
	}
	ph, h, n := r.ph, r.host(), float64(r.n)

	hits := float64(ph.after.CacheHits - ph.before.CacheHits)
	misses := float64(ph.after.CacheMisses - ph.before.CacheMisses)
	v["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["service.plans_executed"] = float64(ph.after.PlansExecuted - ph.before.PlansExecuted)
	v["service.plans_coalesced"] = float64(ph.after.PlansCoalesced - ph.before.PlansCoalesced)
	v["service.jobs_shed"] = float64(ph.after.JobsShed - ph.before.JobsShed)
	v["service.plan_warm_ms_mean"] = 1e3 * ratio(ph.warmSum[0], ph.warmSum[1])
	v["service.plan_cold_ms_mean"] = 1e3 * ratio(ph.coldSum[0], ph.coldSum[1])
	v["service.identical_op_p50_ms"] = median(ph.latencies(func(o *opOutcome) bool { return !o.traced && !o.renamed }))
	v["service.renamed_op_p50_ms"] = median(ph.latencies(func(o *opOutcome) bool { return !o.traced && o.renamed }))

	samples, rejected, wall := 0.0, 0.0, 0.0
	for i := range ph.outcomes {
		o := &ph.outcomes[i]
		if o.res == nil {
			continue
		}
		samples += float64(o.res.Samples)
		wall += ms(o.lat)
		for _, c := range o.res.FailCounts {
			rejected += float64(c)
		}
	}
	v["planner.ms_per_sample"] = ratio(wall, samples)
	v["planner.samples_per_op"] = samples / n
	v["planner.valid_sample_ratio"] = 1 - ratio(rejected, samples)

	v["proc.cpu_ms_per_op"] = ms(ph.cpu) / n
	v["proc.gc_cycles_per_op"] = float64(ph.gcCycles) / n
	v["proc.gc_pause_ms_per_op"] = ms(ph.gcPause) / n

	v["host.calib_ms"] = h.calibMs
	v["host.calib_iqr_ratio"] = h.calibIQR
	v["host.drift_factor"] = h.drift
	v["host.noisy"] = 0
	if h.calibIQR > noisyIQR {
		v["host.noisy"] = 1
	}
	v["host.raw_op_p50_ms"] = h.rawP50
	v["host.raw_ops_per_s"] = h.rawOpsPerS
	// Tail latency is reported, never gated: the highest percentile that
	// still has ten ops beyond it, 0 when the run is too short to have one.
	v["host.op_tail_ms"] = 0
	if lat := ph.latencies(nil); len(lat) >= 20 {
		v["host.op_tail_ms"] = quantile(lat, 1-10/float64(len(lat)))
	}
	v["check.fail_ratio"] = ratio(float64(r.failed()), n)

	v["trace.overhead_ratio"] = ratio(median(ph.latencies(func(o *opOutcome) bool { return o.traced })), h.rawP50)
	v["trace.coverage"] = ratio(r.coveredMs(v), h.rawP50)
	return v
}

// coveredMs is the stated sum of layer medians that should add up to one op
// of the workload (README.md, "Coverage").
func (r *result) coveredMs(v map[string]float64) float64 {
	// decode already contains one Validate and service.hit_ms the other, so
	// graph.validate_ms is not added again.
	hit := v["httpapi.roundtrip_floor_ms"] + v["httpapi.decode_ms"] + v["graph.fingerprint_ms"] + v["service.hit_ms"] + v["httpapi.encode_ms"]
	fixed := v["rl.graphctx_ms"] + v["cpsolver.new_ms"] + v["planner.baseline_ms"]
	switch r.workload {
	case "serve-warm":
		return hit
	case "serve-zeroshot":
		return hit + v["service.miss_overhead_ms"] + fixed + zeroShotBudget*v["rl.zeroshot_ms_per_sample"]
	case "bert-rl":
		return fixed + 2*v["rl.iterate_ms"]
	default: // bert-search-sim
		return fixed + 64*v["search.sa_ms_per_sample"]
	}
}
