package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"mcmpart"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
	"mcmpart/internal/workload"
)

// HeteroConfig parameterizes the heterogeneity/topology sweep: the same
// workload partitioned across packages that differ in chiplet mix and
// interconnect, the scenario axis the paper's single homogeneous-ring
// platform could not explore (cf. Odema et al.'s heterogeneous chiplets and
// Scope-style richer interconnects).
type HeteroConfig struct {
	Scale Scale
	Seed  int64
	// Budget is the per-package evaluation budget for each search method
	// (quick: 120, full: 800).
	Budget int
	// Packages defaults to the preset ladder dev4, het4, dev8, dev8bi,
	// mesh16: a homogeneous ring, its big/little variant, and the same
	// compute re-wired over richer topologies.
	Packages []*mcm.Package
	// Graph defaults to a 10-layer MLP whose weights fit every preset's
	// SRAM, including the 8 MiB little dies.
	Graph *graph.Graph
}

func (c HeteroConfig) withDefaults() HeteroConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Budget == 0 {
		if c.Scale == ScaleFull {
			c.Budget = 800
		} else {
			c.Budget = 120
		}
	}
	if len(c.Packages) == 0 {
		c.Packages = []*mcm.Package{mcm.Dev4(), mcm.Het4(), mcm.Dev8(), mcm.Dev8Bi(), mcm.Mesh16()}
	}
	if c.Graph == nil {
		c.Graph = workload.MLP(workload.MLPConfig{
			Name: "sweep-mlp", Layers: 10, Input: 256, Hidden: 512, Output: 128, Batch: 16,
		})
	}
	return c
}

// HeteroRow is one package's outcome in the sweep.
type HeteroRow struct {
	Package  string
	Topology mcm.TopologyKind
	Chips    int
	Hetero   bool
	// GreedyThroughput is the compiler heuristic's simulated throughput
	// (the row's normalization baseline); GreedyValid is false, and
	// GreedyThroughput 0, when the workload does not fit the package under
	// the heuristic at all.
	GreedyThroughput float64
	GreedyValid      bool
	// RandomImprovement and SAImprovement are each method's best-found
	// throughput over the greedy baseline after Budget evaluations on the
	// hardware simulator.
	RandomImprovement float64
	SAImprovement     float64
}

// HeteroResult holds the sweep outcomes in package order.
type HeteroResult struct {
	Cfg  HeteroConfig
	Rows []HeteroRow
}

// HeteroSweep runs the heterogeneity/topology sweep: for every package, plan
// the greedy heuristic on the hardware simulator, then let Random search and
// simulated annealing spend the evaluation budget, all through a Planner on
// the package (per-chip capacity bounds on heterogeneous packages,
// route-aware pricing on every topology). Each package's plans share one
// seed derived from (Seed, packageIndex), so the sweep is worker-count
// independent.
func HeteroSweep(ctx context.Context, cfg HeteroConfig) (*HeteroResult, error) {
	cfg = cfg.withDefaults()
	res := &HeteroResult{Cfg: cfg, Rows: make([]HeteroRow, len(cfg.Packages))}
	errs := make([]error, len(cfg.Packages))
	parallel.ForEach(len(cfg.Packages), len(cfg.Packages), func(i int) {
		res.Rows[i], errs[i] = heteroRow(ctx, cfg, i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// heteroRow plans package i's row: greedy, then Random and annealing from
// the same seed.
func heteroRow(ctx context.Context, cfg HeteroConfig, i int) (HeteroRow, error) {
	pkg := cfg.Packages[i]
	row := HeteroRow{
		Package:  pkg.Name,
		Topology: pkg.TopologyKind(),
		Chips:    pkg.Chips,
		Hetero:   pkg.Heterogeneous(),
	}
	pl, err := mcmpart.NewPlanner(pkg)
	if err != nil {
		return row, err
	}
	opts := mcmpart.PlanOptions{
		Method:       mcmpart.MethodGreedy,
		SampleBudget: cfg.Budget,
		Seed:         planSeed(cfg.Seed, i),
		UseSimulator: true,
	}
	greedy, err := pl.Plan(ctx, cfg.Graph, opts)
	if errors.Is(err, mcmpart.ErrNoPlan) {
		return row, nil
	}
	if err != nil {
		return row, err
	}
	row.GreedyThroughput, row.GreedyValid = greedy.Throughput, true
	final := func(m mcmpart.Method) (float64, error) {
		opts.Method = m
		h, err := history(ctx, pl, cfg.Graph, opts)
		if err != nil {
			return 0, err
		}
		return h[len(h)-1], nil
	}
	if row.RandomImprovement, err = final(mcmpart.MethodRandom); err != nil {
		return row, err
	}
	row.SAImprovement, err = final(mcmpart.MethodSA)
	return row, err
}

// planSeed is a non-negative PlanOptions.Seed that starts the same
// math/rand stream as parallel.Rng(base, i). A source keeps only its seed
// modulo 2³¹−1 and replaces residue 0 with a default of its own, so any seed
// in (0, 2³¹−1] with the same residue will do; 2³¹−1 stands in for 0.
func planSeed(base int64, i int) int64 {
	s := parallel.Seed(base, i) % math.MaxInt32
	if s <= 0 {
		s += math.MaxInt32
	}
	return s
}

// Format renders the sweep as a table.
func (r *HeteroResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Heterogeneity/topology sweep: %s, %d evaluations per method (hardware simulator)\n\n",
		r.Cfg.Graph.Name(), r.Cfg.Budget)
	fmt.Fprintf(&b, "%-8s %-7s %5s %5s %12s %10s %10s\n",
		"package", "topo", "chips", "het", "greedy(io/s)", "random", "sa")
	for _, row := range r.Rows {
		het := "-"
		if row.Hetero {
			het = "yes"
		}
		if !row.GreedyValid {
			fmt.Fprintf(&b, "%-8s %-7s %5d %5s %12s %10s %10s\n",
				row.Package, row.Topology, row.Chips, het, "(no fit)", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-8s %-7s %5d %5s %12.1f %9.2fx %9.2fx\n",
			row.Package, row.Topology, row.Chips, het,
			row.GreedyThroughput, row.RandomImprovement, row.SAImprovement)
	}
	return b.String()
}
