package experiments

import (
	"fmt"
	"slices"
	"strings"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
	"mcmpart/internal/partition"
	"mcmpart/internal/workload"
)

// Fig7Config parameterizes the cost-model calibration study of Sec. 5.4
// (Figure 7).
type Fig7Config struct {
	Scale Scale
	Seed  int64
	Pkg   *mcm.Package
	// Samples is the number of random solver-valid BERT partitions
	// (paper: 2000).
	Samples int
}

func (c Fig7Config) withDefaults() Fig7Config {
	if c.Pkg == nil {
		c.Pkg = mcm.Edge36()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Samples == 0 {
		if c.Scale == ScaleFull {
			c.Samples = 2000
		} else {
			c.Samples = 400
		}
	}
	return c
}

// Fig7Result holds the calibration scatter and its summary statistics.
type Fig7Result struct {
	Cfg Fig7Config
	// Predicted and Measured are normalized runtimes (each divided by its
	// minimum) of the partitions valid on hardware.
	Predicted, Measured []float64
	// PearsonR is the correlation between them (paper: 0.91).
	PearsonR float64
	// InvalidPct is the share of solver-valid partitions the hardware
	// rejected (paper: 13.5%).
	InvalidPct float64
	// FalsePositives counts hardware-invalid partitions whose predicted
	// runtime was below the median prediction — the "red circle" cluster:
	// partitions that look good analytically but fail on hardware.
	FalsePositives int
}

// Figure7 reproduces the calibration study: draw random solver-valid BERT
// partitions, predict their runtime with the analytical model, measure them
// on the simulator, and compare.
func Figure7(cfg Fig7Config) (*Fig7Result, error) {
	cfg = cfg.withDefaults()
	bert := workload.BERT()
	pr, err := cpsolver.NewAutoPkg(bert, cfg.Pkg, cpsolver.Options{})
	if err != nil {
		return nil, err
	}
	model := costmodel.New(cfg.Pkg)
	sim := hwsim.New(cfg.Pkg, hwsim.Options{Seed: cfg.Seed})

	// Draw, predict, and measure samples across the workers the process
	// budget grants: sample i derives its RNG from (Seed, i), and each
	// worker beyond the first solves on its own partitioner replica, so the
	// scatter is worker-count independent. Results assemble in index order
	// below.
	res := &Fig7Result{Cfg: cfg}
	predAll := make([]float64, cfg.Samples)
	intervals := make([]float64, cfg.Samples)
	validMask := make([]bool, cfg.Samples)
	errs := make([]error, cfg.Samples) // by worker
	parallel.ForEachBlock(cfg.Samples, cfg.Samples, func(part cpsolver.Partitioner, w, lo, hi int) {
		if w > 0 {
			replica, err := cpsolver.NewAutoPkg(bert, cfg.Pkg, cpsolver.Options{})
			if err != nil {
				errs[w] = err
				return
			}
			part = replica
		}
		var p partition.Partition // this worker's samples, each scored before the next is drawn
		for i := lo; i < hi; i++ {
			var err error
			if p, err = part.SampleMode(nil, parallel.Rng(cfg.Seed, i), p...); err != nil {
				errs[w] = fmt.Errorf("experiments: sample %d: %w", i, err)
				return
			}
			predAll[i] = model.Latency(bert, p)
			m := sim.Measure(bert, p, 0)
			validMask[i] = m.Valid
			intervals[i] = m.Interval
		}
	}, pr)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	invalid := 0
	for i := 0; i < cfg.Samples; i++ {
		if !validMask[i] {
			invalid++
			continue
		}
		res.Predicted = append(res.Predicted, predAll[i])
		res.Measured = append(res.Measured, intervals[i])
	}
	res.InvalidPct = 100 * float64(invalid) / float64(cfg.Samples)
	// Normalize both axes to their minima, as the paper plots them.
	normalize(res.Predicted)
	normalize(res.Measured)
	res.PearsonR = pearson(res.Predicted, res.Measured)
	// False positives: invalid on hardware yet predicted below median.
	med := median(predAll)
	for i, pred := range predAll {
		if !validMask[i] && pred < med {
			res.FalsePositives++
		}
	}
	return res, nil
}

func normalize(xs []float64) {
	if len(xs) == 0 {
		return
	}
	min := xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	if min <= 0 {
		return
	}
	for i := range xs {
		xs[i] /= min
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	return c[len(c)/2]
}

// Format prints the calibration summary and a coarse ASCII scatter.
func (r *Fig7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: analytical cost model vs hardware simulator on BERT\n")
	fmt.Fprintf(&b, "(%d random solver-valid partitions)\n\n", r.Cfg.Samples)
	fmt.Fprintf(&b, "hardware-invalid rate: %.1f%% (paper: 13.5%%)\n", r.InvalidPct)
	fmt.Fprintf(&b, "Pearson R (valid samples): %.3f (paper: 0.91)\n", r.PearsonR)
	fmt.Fprintf(&b, "false positives (predicted fast, failed on hardware): %d\n\n", r.FalsePositives)
	b.WriteString(asciiScatter(r.Predicted, r.Measured, 48, 16))
	return b.String()
}

// asciiScatter renders normalized (x, y) points in a text grid.
func asciiScatter(x, y []float64, w, h int) string {
	if len(x) == 0 {
		return "(no valid samples)\n"
	}
	maxX, maxY := 1.0, 1.0
	for i := range x {
		if x[i] > maxX {
			maxX = x[i]
		}
		if y[i] > maxY {
			maxY = y[i]
		}
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for i := range x {
		cx := int((x[i] - 1) / (maxX - 1 + 1e-12) * float64(w-1))
		cy := int((y[i] - 1) / (maxY - 1 + 1e-12) * float64(h-1))
		grid[h-1-cy][cx] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "measured runtime (normalized, up to %.2fx) vs predicted (right, up to %.2fx)\n", maxY, maxX)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", w) + "\n")
	return b.String()
}
