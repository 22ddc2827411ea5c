package experiments

import (
	"context"
	"fmt"
	"strings"

	"mcmpart/internal/graph"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
	"mcmpart/internal/search"
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
	// (the row's normalization baseline); GreedyValid is false when the
	// workload does not fit the package under the heuristic at all.
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

// HeteroSweep runs the heterogeneity/topology sweep: for every package,
// evaluate the greedy heuristic on the hardware simulator, then let Random
// search and simulated annealing spend the evaluation budget, all through
// the package-aware constraint machinery (per-chip capacity bounds on
// heterogeneous packages, route-aware pricing on every topology). Each
// package's searches derive their RNG from (Seed, packageIndex), so the
// sweep is worker-count independent.
func HeteroSweep(ctx context.Context, cfg HeteroConfig) (*HeteroResult, error) {
	cfg = cfg.withDefaults()
	res := &HeteroResult{Cfg: cfg, Rows: make([]HeteroRow, len(cfg.Packages))}
	errs := make([]error, len(cfg.Packages))
	lanes := parallel.AcquireLanes(len(cfg.Packages) - 1)
	defer parallel.ReleaseLanes(lanes)
	parallel.ForEach(lanes+1, len(cfg.Packages), func(i int) {
		pkg := cfg.Packages[i]
		row := HeteroRow{
			Package:  pkg.Name,
			Topology: pkg.TopologyKind(),
			Chips:    pkg.Chips,
			Hetero:   pkg.Heterogeneous(),
		}
		if err := pkg.Validate(); err != nil {
			errs[i] = err
			return
		}
		ev := hwsim.New(pkg, hwsim.Options{Seed: cfg.Seed})
		base := search.GreedyPackage(cfg.Graph, pkg)
		bv := ev.Assess(cfg.Graph, base)
		row.GreedyThroughput = bv.Throughput
		row.GreedyValid = bv.Valid && bv.Throughput > 0
		if !row.GreedyValid {
			res.Rows[i] = row
			return
		}
		// Random, then annealing: each in a fresh environment, from the
		// same (Seed, packageIndex) stream.
		env, err := newEnv(cfg.Graph, pkg, ev)
		if err == nil {
			err = search.Random(ctx, env, cfg.Budget, parallel.Rng(cfg.Seed, i))
		}
		if err != nil {
			errs[i] = err
			return
		}
		row.RandomImprovement = env.BestImprovement()
		env, err = newEnv(cfg.Graph, pkg, ev)
		if err == nil {
			err = search.Anneal(ctx, env, cfg.Budget, search.SAConfig{}, parallel.Rng(cfg.Seed, i))
		}
		if err != nil {
			errs[i] = err
			return
		}
		row.SAImprovement = env.BestImprovement()
		res.Rows[i] = row
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
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
