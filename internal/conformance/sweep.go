package conformance

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"mcmpart"
	"mcmpart/internal/analyze"
	"mcmpart/internal/costmodel"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/parallel"
	"mcmpart/internal/randgraph"
)

// SweepConfig parameterizes a conformance sweep: which packages, how many
// generated graphs, which planning methods, and the seed everything derives
// from. Identical configs produce byte-identical reports.
type SweepConfig struct {
	// Seed derives the graph stream, the partition samples, and every plan
	// (default 1).
	Seed int64
	// Presets are package preset names (default: all six).
	Presets []string
	// GraphsPerPreset is how many randgraph.Sample graphs each package sees
	// (default 28 — with the six presets and four methods that is 672
	// plan cases).
	GraphsPerPreset int
	// Methods are the planning methods swept per graph (default greedy,
	// random, sa, analytic — the methods that need no pre-trained policy).
	Methods []mcmpart.Method
	// SampleBudget bounds each plan's search (default 16; greedy ignores it).
	SampleBudget int
	// PartitionsPerGraph is how many sampled partitions feed the legality
	// oracle per graph (default 6).
	PartitionsPerGraph int
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Presets) == 0 {
		c.Presets = []string{"dev4", "dev8", "dev8bi", "het4", "mesh16", "edge36"}
	}
	if c.GraphsPerPreset == 0 {
		c.GraphsPerPreset = 28
	}
	if len(c.Methods) == 0 {
		c.Methods = []mcmpart.Method{mcmpart.MethodGreedy, mcmpart.MethodRandom, mcmpart.MethodSA, mcmpart.MethodAnalytic}
	}
	if c.SampleBudget == 0 {
		c.SampleBudget = 16
	}
	if c.PartitionsPerGraph == 0 {
		c.PartitionsPerGraph = 6
	}
	return c
}

// PresetReport aggregates one package's sweep outcome.
type PresetReport struct {
	Preset string `json:"preset"`
	// PlanCases is graphs x methods; PlanErrors counts the cases that
	// returned a typed error (e.g. the workload does not fit the package),
	// which is conforming behavior — only oracle violations are failures.
	PlanCases  int `json:"plan_cases"`
	PlanErrors int `json:"plan_errors"`
	CacheHits  int `json:"cache_hits"`
	// Checks is the total number of oracle checks run for the preset.
	Checks     int         `json:"checks"`
	Violations []Violation `json:"violations,omitempty"`
}

// Report is the outcome of one sweep. Same config ⇒ byte-identical Format.
type Report struct {
	Config  SweepConfig    `json:"config"`
	Presets []PresetReport `json:"presets"`
}

// PlanCases returns the total number of graph x package x method cases.
func (r *Report) PlanCases() int {
	n := 0
	for _, p := range r.Presets {
		n += p.PlanCases
	}
	return n
}

// TotalChecks returns the total number of oracle checks run.
func (r *Report) TotalChecks() int {
	n := 0
	for _, p := range r.Presets {
		n += p.Checks
	}
	return n
}

// Violations returns every violation across presets, deterministically
// ordered.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, p := range r.Presets {
		out = append(out, p.Violations...)
	}
	SortViolations(out)
	return out
}

// Sweep runs the full conformance battery: for every preset package, the
// transfer-pricing oracle once, then per generated graph the legality
// oracle over sampled partitions, and per method a cold plan (validity
// oracle) replayed through the Service cache (identity oracle).
//
// The graph stream is shared across presets — randgraph.Sample(cfg.Seed, i)
// — so a violation names a graph every preset saw and reproduces from
// (seed, index) alone. ctx cancellation aborts between cases.
func Sweep(ctx context.Context, cfg SweepConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	report := &Report{Config: cfg, Presets: make([]PresetReport, 0, len(cfg.Presets))}
	graphs := make([]*mcmpart.Graph, cfg.GraphsPerPreset)
	for i := range graphs {
		graphs[i] = randgraph.Sample(cfg.Seed, i)
	}
	for pi, preset := range cfg.Presets {
		pkg, err := mcmpart.PackagePreset(preset)
		if err != nil {
			return nil, err
		}
		pr := PresetReport{Preset: preset}
		// Oracle 2: topology pricing, once per package.
		pr.Checks++
		pr.Violations = append(pr.Violations, CheckTransferMonotonicity("pkg="+preset, pkg)...)

		model := costmodel.New(pkg)
		sim := hwsim.New(pkg, hwsim.Options{Seed: cfg.Seed})
		svc, err := mcmpart.NewService(pkg, mcmpart.ServiceOptions{Workers: 1})
		if err != nil {
			return nil, err
		}

		for gi, g := range graphs {
			if err := ctx.Err(); err != nil {
				svc.Close()
				return report, err
			}
			scenario := fmt.Sprintf("pkg=%s graph=%d/%s seed=%d", preset, gi, g.Name(), cfg.Seed)
			// Oracle 1: legality agreement over sampled partitions. The
			// partition stream derives from (seed, preset index, graph
			// index) so every case is independently reproducible.
			rng := parallel.Rng(parallel.Seed(cfg.Seed, pi), gi)
			parts := SamplePartitions(g, pkg.Chips, rng, cfg.PartitionsPerGraph)
			for _, p := range parts {
				pr.Checks++
				pr.Violations = append(pr.Violations, CheckLegalityAgreement(scenario, g, pkg, p, model, sim)...)
			}
			// Oracles 5+6: bound soundness over the same partition samples,
			// and the analytic fast path's plan certificate.
			if an, aerr := analyze.New(g, pkg); aerr == nil {
				static := an.LowerBound()
				hw := an.LowerBoundWith(HardwareCostParams())
				pr.Checks++
				pr.Violations = append(pr.Violations, CheckBoundSoundness(scenario, g, pkg, parts, static, hw, model, sim)...)
				pr.Checks++
				pr.Violations = append(pr.Violations, CheckAnalyticPlan(scenario, g, pkg, an, model)...)
			}
			// Oracles 3+4 per method: cold plan validity, cached replay
			// identity.
			for _, method := range cfg.Methods {
				caseName := fmt.Sprintf("%s method=%s", scenario, method)
				opts := mcmpart.PlanOptions{Method: method, SampleBudget: cfg.SampleBudget, Seed: cfg.Seed}
				pr.PlanCases++
				cold, coldCached, err := planOnce(ctx, svc, g, opts)
				if err != nil {
					if ctx.Err() != nil {
						svc.Close()
						return report, ctx.Err()
					}
					// A typed error is conforming (e.g. "does not fit").
					pr.PlanErrors++
					continue
				}
				pr.Checks++
				if coldCached {
					pr.Violations = append(pr.Violations, Violation{
						Oracle: "cache", Scenario: caseName,
						Detail: "first plan of a case reported as a cache hit",
					})
				}
				pr.Violations = append(pr.Violations, CheckPlanResult(caseName, g, pkg, cold)...)
				warm, warmCached, err := planOnce(ctx, svc, g, opts)
				pr.Checks++
				switch {
				case err != nil:
					pr.Violations = append(pr.Violations, Violation{
						Oracle: "cache", Scenario: caseName,
						Detail: "cached replay errored: " + err.Error(),
					})
				case !warmCached:
					pr.Violations = append(pr.Violations, Violation{
						Oracle: "cache", Scenario: caseName,
						Detail: "second identical plan was not served from the cache",
					})
				default:
					pr.CacheHits++
					if diff := DiffResults(cold, warm); diff != "" {
						pr.Violations = append(pr.Violations, Violation{
							Oracle: "cache", Scenario: caseName,
							Detail: "cache hit differs from cold plan: " + diff,
						})
					}
				}
			}
		}
		svc.Close()
		SortViolations(pr.Violations)
		report.Presets = append(report.Presets, pr)
	}
	return report, nil
}

// planOnce submits one plan and reports (result, served-from-cache, error).
func planOnce(ctx context.Context, svc *mcmpart.Service, g *mcmpart.Graph, opts mcmpart.PlanOptions) (*mcmpart.Result, bool, error) {
	job, err := svc.Submit(ctx, mcmpart.PlanRequest{Graph: g, Options: opts})
	if err != nil {
		return nil, false, err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		job.Cancel()
		<-job.Done()
	}
	res, err := job.Result()
	if err != nil {
		return nil, false, err
	}
	return res, job.Status().Cached, nil
}

// CheckPlanResult checks the plan-validity oracle on one successful plan:
// the partition passes ValidateOn, and the Result's fields are internally
// consistent (positive throughput, history consistent with the reported
// improvement, samples counted).
func CheckPlanResult(scenario string, g *mcmpart.Graph, pkg *mcmpart.Package, res *mcmpart.Result) []Violation {
	var out []Violation
	add := func(format string, args ...any) {
		out = append(out, Violation{Oracle: "plan", Scenario: scenario, Detail: fmt.Sprintf(format, args...)})
	}
	if res == nil {
		add("nil result without error")
		return out
	}
	if err := res.Partition.ValidateOn(g, pkg); err != nil {
		add("returned partition fails ValidateOn: %v", err)
	}
	if !(res.Throughput > 0) || math.IsInf(res.Throughput, 0) || math.IsNaN(res.Throughput) {
		add("throughput %v", res.Throughput)
	}
	if !(res.Improvement > 0) {
		add("improvement %v", res.Improvement)
	}
	if res.Samples < 1 {
		add("samples %d", res.Samples)
	}
	if n := len(res.History); n > 0 && res.History[n-1] != res.Improvement {
		add("history tail %v does not match improvement %v", res.History[n-1], res.Improvement)
	}
	return out
}

// DiffResults compares two results bit-for-bit and describes the first
// difference ("" when identical). Floats are compared by their bit
// patterns, the cache-identity contract.
func DiffResults(a, b *mcmpart.Result) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return "one result is nil"
	}
	if len(a.Partition) != len(b.Partition) {
		return fmt.Sprintf("partition lengths %d vs %d", len(a.Partition), len(b.Partition))
	}
	for i := range a.Partition {
		if a.Partition[i] != b.Partition[i] {
			return fmt.Sprintf("partition[%d] %d vs %d", i, a.Partition[i], b.Partition[i])
		}
	}
	if math.Float64bits(a.Throughput) != math.Float64bits(b.Throughput) {
		return fmt.Sprintf("throughput bits %v vs %v", a.Throughput, b.Throughput)
	}
	if math.Float64bits(a.Improvement) != math.Float64bits(b.Improvement) {
		return fmt.Sprintf("improvement bits %v vs %v", a.Improvement, b.Improvement)
	}
	if a.Samples != b.Samples {
		return fmt.Sprintf("samples %d vs %d", a.Samples, b.Samples)
	}
	if len(a.History) != len(b.History) {
		return fmt.Sprintf("history lengths %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if math.Float64bits(a.History[i]) != math.Float64bits(b.History[i]) {
			return fmt.Sprintf("history[%d] bits %v vs %v", i, a.History[i], b.History[i])
		}
	}
	if len(a.FailCounts) != len(b.FailCounts) {
		return fmt.Sprintf("fail-count sizes %d vs %d", len(a.FailCounts), len(b.FailCounts))
	}
	keys := make([]string, 0, len(a.FailCounts))
	for k := range a.FailCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.FailCounts[k] != b.FailCounts[k] {
			return fmt.Sprintf("fail-count[%q] %d vs %d", k, a.FailCounts[k], b.FailCounts[k])
		}
	}
	return ""
}

// Format renders the report as a deterministic table plus the violation
// list; it is the byte-stable artifact `mcmexp -exp conformance` emits.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Conformance sweep: seed %d, %d packages x %d graphs x %d methods = %d plan cases (budget %d)\n\n",
		r.Config.Seed, len(r.Config.Presets), r.Config.GraphsPerPreset, len(r.Config.Methods),
		r.PlanCases(), r.Config.SampleBudget)
	fmt.Fprintf(&b, "%-8s %6s %7s %7s %7s %11s\n", "package", "cases", "errors", "hits", "checks", "violations")
	for _, p := range r.Presets {
		fmt.Fprintf(&b, "%-8s %6d %7d %7d %7d %11d\n",
			p.Preset, p.PlanCases, p.PlanErrors, p.CacheHits, p.Checks, len(p.Violations))
	}
	vs := r.Violations()
	fmt.Fprintf(&b, "\nTOTAL: %d plan cases, %d oracle checks, %d violations\n", r.PlanCases(), r.TotalChecks(), len(vs))
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}
