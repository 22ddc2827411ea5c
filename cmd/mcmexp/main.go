// Command mcmexp regenerates the paper's tables and figures, plus the
// heterogeneity/topology sweep that goes beyond the paper's single
// homogeneous-ring platform.
//
// Usage:
//
//	mcmexp -exp fig5|table2|fig6|table3|fig7|table1|hetero|conformance|all
//	       [-scale quick|full] [-seed N] [-workers N] [-mcm p1,p2,...]
//	       [-timeout 30m]
//
// -mcm restricts the hetero sweep to a comma-separated list of package
// presets (default: dev4,het4,dev8,dev8bi,mesh16) and the conformance
// sweep likewise (default: all six presets).
//
// -exp conformance runs the scenario-fuzzing conformance battery
// (internal/conformance): generated random graphs x package presets x
// planning methods, checked against the differential oracles of DESIGN.md
// §9. The report is byte-identical for a given -seed; any violation line
// names the (seed, graph index) pair that reproduces it, and the run exits
// non-zero so CI can gate on it.
//
// -timeout aborts a run that exceeds the given wall-clock budget (the
// search loops observe context cancellation and stop at the next sample
// or iteration boundary).
//
// Quick scale (default) runs reduced budgets sized for one CPU core; full
// scale runs the paper's budgets (see DESIGN.md for the mapping).
//
// -workers is the CPU budget every fan-out in the process shares (trials,
// rollout collection, corpus sampling, large matmuls), however they nest;
// it defaults to all CPUs. Results are bit-for-bit identical for a given
// -seed at any -workers value — work splits by item index and each item's
// randomness derives from (seed, index), so parallelism changes wall-clock
// only (see DESIGN.md, "Parallel execution engine").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"mcmpart/internal/experiments"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig5, table2, fig6, table3, fig7, hetero, conformance, all")
	scaleFlag := flag.String("scale", "quick", "scale: quick or full")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", runtime.NumCPU(),
		"CPU budget every fan-out in the process shares: trials, rollouts, sampling, kernels (results are identical at any value)")
	mcmList := flag.String("mcm", "", "comma-separated package presets for the hetero sweep (default dev4,het4,dev8,dev8bi,mesh16)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no deadline)")
	flag.Parse()

	parallel.SetDefault(*workers)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	run := func(name string) bool { return *exp == name || *exp == "all" }

	if run("table1") {
		res, err := experiments.Table1(*seed, 200)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}

	var f5 *experiments.Fig5Result
	if run("fig5") || run("table2") || run("fig6") || run("table3") {
		f5, err = experiments.Figure5(ctx, experiments.Fig5Config{Scale: scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
	}
	if run("fig5") {
		fmt.Println(f5.Format())
	}
	if run("table2") {
		fmt.Println(experiments.Table2(f5).Format("Table 2: samples to reach geomean improvement (test set, cost model)"))
	}

	var f6 *experiments.Fig6Result
	if run("fig6") || run("table3") {
		f6, err = experiments.Figure6(ctx, experiments.Fig6Config{Scale: scale, Seed: *seed, Planner: f5.Planner})
		if err != nil {
			fatal(err)
		}
	}
	if run("fig6") {
		fmt.Println(f6.Format())
	}
	if run("table3") {
		t3 := experiments.Table3(f6)
		fmt.Println(t3.Format("Table 3: samples to reach BERT improvement (hardware simulator)"))
		fmt.Println(experiments.SearchTimeSummary(t3))
		fmt.Println()
	}

	if run("fig7") {
		res, err := experiments.Figure7(experiments.Fig7Config{Scale: scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}

	if run("hetero") {
		cfg := experiments.HeteroConfig{Scale: scale, Seed: *seed}
		for _, name := range parsePresets(*mcmList) {
			pkg, err := mcm.Preset(name)
			if err != nil {
				fatal(err)
			}
			cfg.Packages = append(cfg.Packages, pkg)
		}
		res, err := experiments.HeteroSweep(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}

	// The conformance gate runs last so a violation's non-zero exit never
	// truncates the independent experiments of an -exp all run.
	if run("conformance") {
		cfg := experiments.ConformanceConfig{Scale: scale, Seed: *seed}
		for _, name := range parsePresets(*mcmList) {
			if _, err := mcm.Preset(name); err != nil {
				fatal(err)
			}
			cfg.Presets = append(cfg.Presets, name)
		}
		res, err := experiments.ConformanceSweep(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
		if vs := res.Violations(); len(vs) != 0 {
			fatal(fmt.Errorf("conformance: %d oracle violations (reproduce with -seed %d)", len(vs), *seed))
		}
	}
}

// parsePresets splits a -mcm list into trimmed preset names ("" → none).
func parsePresets(list string) []string {
	if list == "" {
		return nil
	}
	var names []string
	for _, name := range strings.Split(list, ",") {
		names = append(names, strings.TrimSpace(name))
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcmexp:", err)
	os.Exit(1)
}
