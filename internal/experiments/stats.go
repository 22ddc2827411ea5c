package experiments

import "math"

// The summary statistics the harness reports: geometric means of per-graph
// improvements (Figure 5), Pearson correlation for the cost-model
// calibration (Figure 7), and sample-threshold extraction for Tables 2 and 3.

// mean returns the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean returns the geometric mean. Non-positive entries clamp to a tiny
// positive value so a single failed graph cannot zero the whole aggregate.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x < 1e-12 {
			x = 1e-12
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// pearson returns the Pearson correlation coefficient of two equal-length
// samples (0 when degenerate).
func pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	mx, my := mean(x), mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// firstReached returns the 1-based sample count at which the best-so-far
// history first reaches the threshold, or -1 if it never does (reported as
// "N.A." in the paper's tables).
func firstReached(history []float64, threshold float64) int {
	for i, v := range history {
		if v >= threshold {
			return i + 1
		}
	}
	return -1
}

// geomeanCurves merges per-graph best-so-far histories into one geomean
// curve of the given length: entry s is the geometric mean over graphs of
// the best improvement after s+1 samples (histories shorter than the curve
// contribute their final value).
func geomeanCurves(histories [][]float64, length int) []float64 {
	curve := make([]float64, length)
	vals := make([]float64, len(histories))
	for s := 0; s < length; s++ {
		for gi, h := range histories {
			switch {
			case len(h) == 0:
				vals[gi] = 1e-12
			case s < len(h):
				vals[gi] = h[s]
			default:
				vals[gi] = h[len(h)-1]
			}
		}
		curve[s] = geomean(vals)
	}
	return curve
}
