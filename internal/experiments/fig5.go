package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"mcmpart"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
	"mcmpart/internal/workload"
)

// Fig5Config parameterizes the pre-training experiment of Sec. 5.2
// (Figure 5 and Table 2) on the Edge36 package.
type Fig5Config struct {
	Scale Scale
	Seed  int64
	// SampleBudget is the per-graph evaluation budget (paper: 5000).
	SampleBudget int
	// TestGraphs caps how many of the 16 test graphs run (0 = all).
	TestGraphs int
	// PretrainSamples is the training-worker budget (paper: 20000).
	PretrainSamples int
	// TrainGraphs caps how many of the 66 training graphs the quick scale
	// uses (0 = all).
	TrainGraphs int
}

// withDefaults fills the scale-dependent budgets.
func (c Fig5Config) withDefaults() Fig5Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == ScaleFull {
		if c.SampleBudget == 0 {
			c.SampleBudget = 5000
		}
		if c.PretrainSamples == 0 {
			c.PretrainSamples = 20000
		}
	} else {
		if c.SampleBudget == 0 {
			c.SampleBudget = 200
		}
		if c.PretrainSamples == 0 {
			c.PretrainSamples = 600
		}
		if c.TestGraphs == 0 {
			c.TestGraphs = 6
		}
		if c.TrainGraphs == 0 {
			c.TrainGraphs = 12
		}
	}
	return c
}

// Fig5Result holds the geomean improvement curves of Figure 5 plus the
// planner whose pre-trained policy the BERT experiments reuse.
type Fig5Result struct {
	Cfg Fig5Config
	// Curves maps each method to its geomean best-so-far improvement per
	// sample over the test graphs.
	Curves map[mcmpart.Method][]float64
	// Final is each method's improvement at the end of the budget.
	Final map[mcmpart.Method]float64
	// Planner holds the validation-selected policy.
	Planner *mcmpart.Planner
	// Pretrain reports the pre-training run that selected it.
	Pretrain *mcmpart.PretrainReport
}

// Figure5 reproduces the pre-training experiment: pre-train on the training
// set against the analytical cost model, then compare Random, SA, RL from
// scratch, zero-shot and fine-tuning on the held-out test graphs.
// Cancelling ctx aborts the run and propagates ctx.Err().
func Figure5(ctx context.Context, cfg Fig5Config) (*Fig5Result, error) {
	cfg = cfg.withDefaults()
	ds := workload.Corpus(cfg.Seed)
	pl, err := mcmpart.NewPlanner(mcm.Edge36())
	if err != nil {
		return nil, err
	}

	// Pre-training pipeline (training + validation workers, Figure 4): the
	// planner holds out the corpus slice's tail, the validation set.
	train := ds.Train
	if cfg.TrainGraphs > 0 && cfg.TrainGraphs < len(train) {
		train = train[:cfg.TrainGraphs]
	}
	corpus := append(append([]*graph.Graph(nil), train...), ds.Validation...)
	report, err := pl.Pretrain(ctx, corpus, mcmpart.PretrainOptions{
		TotalSamples:      cfg.PretrainSamples,
		Checkpoints:       10,
		ValidationSamples: 8,
		ValidationGraphs:  len(ds.Validation),
		Seed:              cfg.Seed,
		FullScale:         cfg.Scale == ScaleFull,
	})
	if err != nil {
		return nil, err
	}

	test := ds.Test
	if cfg.TestGraphs > 0 && cfg.TestGraphs < len(test) {
		test = test[:cfg.TestGraphs]
	}
	res := &Fig5Result{
		Cfg:      cfg,
		Curves:   make(map[mcmpart.Method][]float64),
		Final:    make(map[mcmpart.Method]float64),
		Planner:  pl,
		Pretrain: report,
	}
	// The (graph, method) trials are independent plans, each seeded from
	// the pair's graph index, so they fan out across the workers the
	// process budget grants, results assembled in index order. A trial's
	// own rollout fan-out finds the budget drawn down by as much; by the
	// determinism contract that changes wall-clock only, never results.
	items := len(test) * len(Methods)
	hists, err := parallel.MapErr(items, items, func(idx int) ([]float64, error) {
		gi, mi := idx/len(Methods), idx%len(Methods)
		return history(ctx, pl, test[gi], mcmpart.PlanOptions{
			Method:       Methods[mi],
			SampleBudget: cfg.SampleBudget,
			Seed:         cfg.Seed + int64(gi)*101,
		})
	})
	if err != nil {
		return nil, err
	}
	histories := make(map[mcmpart.Method][][]float64)
	for idx, h := range hists {
		histories[Methods[idx%len(Methods)]] = append(histories[Methods[idx%len(Methods)]], h)
	}
	for _, m := range Methods {
		res.Curves[m] = geomeanCurves(histories[m], cfg.SampleBudget)
		res.Final[m] = res.Curves[m][len(res.Curves[m])-1]
	}
	return res, nil
}

// history is one trial: a plan of g, whose curve is the plan's best-so-far
// history. A plan that found no valid partition records the all-zero curve.
func history(ctx context.Context, pl *mcmpart.Planner, g *graph.Graph, opts mcmpart.PlanOptions) ([]float64, error) {
	res, err := pl.Plan(ctx, g, opts)
	if errors.Is(err, mcmpart.ErrNoPlan) {
		return make([]float64, opts.SampleBudget), nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", labels[opts.Method], g.Name(), err)
	}
	return res.History, nil
}

// Format prints the Figure 5 series at a few sample points plus the final
// geomean improvements.
func (r *Fig5Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: geomean throughput improvement over the greedy heuristic\n")
	fmt.Fprintf(&b, "(test graphs, analytical cost model, budget %d samples)\n\n", r.Cfg.SampleBudget)
	points := samplePoints(r.Cfg.SampleBudget)
	fmt.Fprintf(&b, "%-14s", "# samples")
	for _, p := range points {
		fmt.Fprintf(&b, "%10d", p)
	}
	b.WriteByte('\n')
	for _, m := range Methods {
		fmt.Fprintf(&b, "%-14s", labels[m])
		for _, p := range points {
			fmt.Fprintf(&b, "%10.3f", r.Curves[m][p-1])
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	for _, m := range Methods {
		fmt.Fprintf(&b, "final %-14s %.3fx\n", labels[m], r.Final[m])
	}
	return b.String()
}

// samplePoints picks representative x-axis points for text output.
func samplePoints(budget int) []int {
	raw := []int{budget / 20, budget / 8, budget / 4, budget / 2, 3 * budget / 4, budget}
	var pts []int
	for _, p := range raw {
		if p >= 1 && (len(pts) == 0 || p > pts[len(pts)-1]) {
			pts = append(pts, p)
		}
	}
	sort.Ints(pts)
	return pts
}

// Table2Thresholds are the geomean improvement levels of Table 2.
var Table2Thresholds = []float64{1.60, 1.70, 1.80}

// ThresholdTable is the generic form of Tables 2 and 3: the number of
// samples each method needs to reach each threshold, and the reduction
// factor relative to RL trained from scratch (N.A. when never reached).
type ThresholdTable struct {
	Thresholds []float64
	// Samples[m][i] is the 1-based sample count, or -1 for never.
	Samples map[mcmpart.Method][]int
}

// NewThresholdTable derives the table from per-method geomean curves.
func NewThresholdTable(curves map[mcmpart.Method][]float64, thresholds []float64) *ThresholdTable {
	t := &ThresholdTable{Thresholds: thresholds, Samples: make(map[mcmpart.Method][]int)}
	for _, m := range Methods {
		row := make([]int, len(thresholds))
		for i, th := range thresholds {
			row[i] = firstReached(curves[m], th)
		}
		t.Samples[m] = row
	}
	return t
}

// Format prints the table in the paper's "samples (reduction x)" form.
func (t *ThresholdTable) Format(caption string) string {
	var b strings.Builder
	b.WriteString(caption)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-14s", "method")
	for _, th := range t.Thresholds {
		fmt.Fprintf(&b, "%18s", fmt.Sprintf(">= %.2fx", th))
	}
	b.WriteByte('\n')
	rlRow := t.Samples[mcmpart.MethodRL]
	for _, m := range Methods {
		fmt.Fprintf(&b, "%-14s", labels[m])
		for i, s := range t.Samples[m] {
			if s < 0 {
				fmt.Fprintf(&b, "%18s", "N.A. (N.A.)")
				continue
			}
			if rlRow[i] > 0 {
				fmt.Fprintf(&b, "%18s", fmt.Sprintf("%d (%.2fx)", s, float64(rlRow[i])/float64(s)))
			} else {
				fmt.Fprintf(&b, "%18s", fmt.Sprintf("%d (N.A.)", s))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table2 derives Table 2 from a Figure 5 run, using thresholds adapted to
// the measured improvement range when the paper's absolute levels are out
// of reach for the simulated substrate (the reduction factors, not the
// absolute levels, are the reproduction target).
func Table2(r *Fig5Result) *ThresholdTable {
	return NewThresholdTable(r.Curves, adaptThresholds(r.Curves, Table2Thresholds))
}

// adaptThresholds keeps the paper's thresholds when they discriminate on
// the measured curves (above the first-sample level, reached by at least one
// method); otherwise it rescales them into the measured range (50%, 75% and
// 95% of the way from the first sample's level to the best final level).
// The paper's absolute levels depend on its proprietary platform; the
// reproduction target for Tables 2 and 3 is the sample-reduction factors.
func adaptThresholds(curves map[mcmpart.Method][]float64, paper []float64) []float64 {
	var lo, hi float64
	reached := 0
	for _, m := range Methods {
		c := curves[m]
		if len(c) == 0 {
			continue
		}
		if lo == 0 || c[0] < lo {
			lo = c[0]
		}
		if c[len(c)-1] > hi {
			hi = c[len(c)-1]
		}
		for _, th := range paper {
			if c[len(c)-1] >= th {
				reached++
			}
		}
	}
	discriminating := reached >= len(paper)
	for _, th := range paper {
		if th <= lo {
			discriminating = false // trivially reached at the first sample
		}
	}
	if discriminating {
		return paper
	}
	fracs := []float64{0.5, 0.75, 0.95}
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		out[i] = lo + f*(hi-lo)
	}
	return out
}
