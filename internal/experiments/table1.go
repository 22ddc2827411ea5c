package experiments

import (
	"fmt"
	"strings"
	"time"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
	"mcmpart/internal/partition"
	"mcmpart/internal/workload"
)

// Table1Result backs the paper's qualitative comparison (Table 1) with
// measured evidence from this repository: the validity rate of raw policy
// samples versus solver-corrected ones, and time-to-solution of the solver
// path.
type Table1Result struct {
	// RawValidPct is the share of uniform random assignments that satisfy
	// all static constraints without the solver — the reason pure RL
	// "fails due to insufficient valid samples".
	RawValidPct float64
	// SolverValidPct is the share of solver-emitted partitions that are
	// valid (always 100 by construction; measured as an invariant).
	SolverValidPct float64
	// SolverMsPerSample is the measured time to produce one valid
	// partition through the solver.
	SolverMsPerSample float64
}

// Table1 measures the evidence on a mid-size corpus graph over the Edge36
// package. Both measurement loops fan out across the workers the process
// budget grants with per-sample seeds, so the rates are identical at any
// worker count (only the measured per-sample latency reflects the
// parallelism).
func Table1(seed int64, samples int) (*Table1Result, error) {
	if samples <= 0 {
		samples = 200
	}
	pkg := mcm.Edge36()
	g := workload.CorpusGraphs(seed)[1] // a residual CNN: skip edges galore
	res := &Table1Result{}

	rawOK := make([]bool, samples)
	parallel.ForEachBlock(samples, samples, func(rawOK []bool, _, lo, hi int) {
		y := make(partition.Partition, g.NumNodes())
		for i := lo; i < hi; i++ {
			rng := parallel.Rng(seed, i)
			for j := range y {
				y[j] = rng.Intn(pkg.Chips)
			}
			rawOK[i] = y.Validate(g, pkg.Chips) == nil
		}
	}, rawOK)
	res.RawValidPct = 100 * float64(count(rawOK)) / float64(samples)

	pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
	if err != nil {
		return nil, err
	}
	solverOK := make([]bool, samples)
	// Per-sample solve time is summed across workers (each sample timed
	// individually), so the reported ms/sample is the true cost of one
	// solve, independent of how many cores ran the loop. Each worker beyond
	// the first solves on its own partitioner replica.
	solveNs := make([]int64, samples) // by worker
	errs := make([]error, samples)    // by worker
	parallel.ForEachBlock(samples, samples, func(part cpsolver.Partitioner, w, lo, hi int) {
		if w > 0 {
			replica, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
			if err != nil {
				errs[w] = err
				return
			}
			part = replica
		}
		var p partition.Partition // this worker's samples, each checked before the next is drawn
		for i := lo; i < hi; i++ {
			rng := parallel.Rng(seed+1, i)
			start := time.Now()
			var err error
			p, err = part.SampleMode(nil, rng, p...)
			solveNs[w] += time.Since(start).Nanoseconds()
			solverOK[i] = err == nil && p.Validate(g, pkg.Chips) == nil
		}
	}, pr)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var totalNs int64
	for _, ns := range solveNs {
		totalNs += ns
	}
	res.SolverMsPerSample = float64(totalNs) / 1e6 / float64(samples)
	res.SolverValidPct = 100 * float64(count(solverOK)) / float64(samples)
	return res, nil
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// Format prints Table 1 with the measured evidence appended.
func (r *Table1Result) Format() string {
	var b strings.Builder
	b.WriteString(`Table 1: comparison of partitioning approaches
                       CPS    CH     RL     CPS+S  CPS+RL (this work)
static constraints     yes    yes    no     yes    yes
dynamic constraints    no     yes    no     yes    yes
needs closed-form perf yes    no     no     no     no
solution quality       n.a.   low    n.a.   medium high
time to solution       n.a.   fast   n.a.   slow   fast

`)
	fmt.Fprintf(&b, "measured evidence (residual CNN on edge36):\n")
	fmt.Fprintf(&b, "  raw uniform assignments valid: %.2f%% (why RL alone sees no reward)\n", r.RawValidPct)
	fmt.Fprintf(&b, "  solver-corrected samples valid: %.1f%%\n", r.SolverValidPct)
	fmt.Fprintf(&b, "  solver time per valid sample: %.2f ms\n", r.SolverMsPerSample)
	return b.String()
}
