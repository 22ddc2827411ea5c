package experiments

import (
	"context"
	"fmt"
	"strings"

	"mcmpart"
	"mcmpart/internal/parallel"
	"mcmpart/internal/workload"
)

// secondsPerSample converts sample counts to the paper's wall-clock framing:
// the paper measured 26.97 s per hardware sample.
const secondsPerSample = 26.97

// Fig6Config parameterizes the BERT deployment experiment of Sec. 5.3
// (Figure 6 and Table 3): search on "real hardware" (the simulator).
type Fig6Config struct {
	Scale Scale
	Seed  int64
	// SampleBudget is the hardware-evaluation budget (paper: 800).
	SampleBudget int
	// Planner plans every trial, with the pre-trained policy the
	// deployed-policy methods need: Figure 5's. When nil, Figure6 runs
	// Figure 5 for it.
	Planner *mcmpart.Planner
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SampleBudget == 0 {
		if c.Scale == ScaleFull {
			c.SampleBudget = 800
		} else {
			c.SampleBudget = 240
		}
	}
	return c
}

// Fig6Result holds the BERT improvement curves over the greedy heuristic.
type Fig6Result struct {
	Cfg    Fig6Config
	Curves map[mcmpart.Method][]float64
	Final  map[mcmpart.Method]float64
	// RLvsRandomPct and RLvsSAPct are the headline percentages of
	// Sec. 5.3 (paper: 6.11% and 5.85%).
	RLvsRandomPct, RLvsSAPct float64
}

// Figure6 reproduces the BERT evaluation: all five strategies search for
// partitions of the 2138-node BERT graph with rewards measured on the
// hardware simulator, normalized to the production greedy heuristic.
// Cancelling ctx aborts the run and propagates ctx.Err().
func Figure6(ctx context.Context, cfg Fig6Config) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	bert := workload.BERT()

	pl := cfg.Planner
	if pl == nil {
		f5, err := Figure5(ctx, Fig5Config{Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: pre-training for Figure 6: %w", err)
		}
		pl = f5.Planner
	}

	res := &Fig6Result{
		Cfg:    cfg,
		Curves: make(map[mcmpart.Method][]float64),
		Final:  make(map[mcmpart.Method]float64),
	}
	// The five strategies are independent plans, each seeded from its
	// method index, so they fan out across the workers the process budget
	// grants with results identical to a serial run.
	hists, err := parallel.MapErr(len(Methods), len(Methods), func(mi int) ([]float64, error) {
		return history(ctx, pl, bert, mcmpart.PlanOptions{
			Method:       Methods[mi],
			SampleBudget: cfg.SampleBudget,
			Seed:         cfg.Seed + int64(mi)*733,
			UseSimulator: true,
		})
	})
	if err != nil {
		return nil, err
	}
	for mi, m := range Methods {
		// Single graph: the curve is the plan's history itself.
		res.Curves[m] = geomeanCurves([][]float64{hists[mi]}, cfg.SampleBudget)
		res.Final[m] = res.Curves[m][len(res.Curves[m])-1]
	}
	res.RLvsRandomPct = 100 * (res.Final[mcmpart.MethodRL]/res.Final[mcmpart.MethodRandom] - 1)
	res.RLvsSAPct = 100 * (res.Final[mcmpart.MethodRL]/res.Final[mcmpart.MethodSA] - 1)
	return res, nil
}

// Format prints the Figure 6 series plus the Sec. 5.3 headline comparisons.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: BERT throughput improvement over the greedy heuristic\n")
	fmt.Fprintf(&b, "(2138-node BERT, hardware simulator, budget %d samples)\n\n", r.Cfg.SampleBudget)
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
	fmt.Fprintf(&b, "\nRL vs Random at convergence: %+.2f%% (paper: +6.11%%)\n", r.RLvsRandomPct)
	fmt.Fprintf(&b, "RL vs SA at convergence:     %+.2f%% (paper: +5.85%%)\n", r.RLvsSAPct)
	return b.String()
}

// Table3Thresholds are the BERT improvement levels of Table 3.
var Table3Thresholds = []float64{2.55, 2.60, 2.65}

// Table3 derives Table 3 from a Figure 6 run and reports the search-time
// framing of Sec. 5.3 (samples x seconds-per-sample).
func Table3(r *Fig6Result) *ThresholdTable {
	return NewThresholdTable(r.Curves, adaptThresholds(r.Curves, Table3Thresholds))
}

// SearchTimeSummary renders the paper's "3 hours -> 9 minutes" claim from
// the measured sample counts: the time RL-from-scratch and fine-tuning need
// to reach the highest threshold both methods attain.
func SearchTimeSummary(t *ThresholdTable) string {
	rlRow, ftRow := t.Samples[mcmpart.MethodRL], t.Samples[mcmpart.MethodFineTune]
	for i := len(t.Thresholds) - 1; i >= 0; i-- {
		if rlRow[i] > 0 && ftRow[i] > 0 {
			rlMin := float64(rlRow[i]) * secondsPerSample / 60
			ftMin := float64(ftRow[i]) * secondsPerSample / 60
			return fmt.Sprintf(
				"reaching %.2fx at %.2f s/sample: RL from scratch %.0f min, fine-tuning %.0f min (paper: >3 h -> ~9 min)",
				t.Thresholds[i], secondsPerSample, rlMin, ftMin)
		}
	}
	return "search-time summary: no threshold reached by both RL and fine-tuning"
}
