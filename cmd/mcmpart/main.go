// Command mcmpart partitions a computation graph onto an MCM package
// through the library's Planner session API.
//
// Usage:
//
//	mcmpart -graph model.json [-mcm edge36] [-method rl|random|sa|greedy|analytic|zeroshot|finetune]
//	        [-budget 200] [-seed 1] [-workers N] [-sim] [-dot out.dot]
//	        [-pretrain N] [-policy in.policy.json] [-save-policy out.policy.json]
//	        [-timeout 30s] [-progress]
//
// The graph JSON format is produced by cmd/mcmgen (or any tool emitting
// {"name", "nodes", "edges"}; see internal/graph). The chosen partition is
// printed as JSON on stdout together with its evaluation.
//
// -method analytic selects the static-analysis fast path (internal/analyze):
// a deterministic propagation-based partitioner that never calls an
// evaluator, plans 100k-node graphs in tens of milliseconds, and reports a
// sound cost lower bound alongside the plan. -budget is ignored; -seed does
// not change the result.
//
// -mcm selects the target package: a preset name (dev4, dev8, dev8bi,
// edge36, het4, mesh16) or a path to a package JSON descriptor (see
// cmd/mcmgen -what packages for examples); the default is edge36.
//
// Transferability flags (the paper's pretrain → zero-shot / fine-tune
// workflow):
//
//   - -pretrain N pre-trains the planner on the first N synthetic corpus
//     graphs (a fifth held out for validation) before planning.
//   - -policy loads a saved policy artifact instead; the artifact's
//     package fingerprint must match -mcm.
//   - -save-policy persists the pre-trained policy for later runs.
//   - -method zeroshot / finetune deploy the policy on the target graph.
//
// -timeout bounds wall-clock. A timeout during planning still prints the
// best partition found so far (with "timed_out": true in the output); a
// timeout during -pretrain saves the best-so-far policy (when -save-policy
// is set) and exits without planning — the pre-training work is preserved
// either way.
//
// -workers is the CPU budget rollout collection, pre-training's validation
// scoring and the math kernels all draw their goroutines from, however
// they nest (default: all CPUs). The chosen partition is bit-for-bit
// identical for a given -seed at any -workers value; the flag trades
// wall-clock only.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mcmpart"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
)

func main() {
	graphPath := flag.String("graph", "", "path to the graph JSON (required; \"bert\" for the built-in BERT)")
	mcmSpec := flag.String("mcm", "edge36", "target package: preset name (dev4, dev8, dev8bi, edge36, het4, mesh16) or package JSON path")
	method := flag.String("method", "rl", "partitioning method: greedy, random, sa, rl, zeroshot, finetune, or analytic (evaluator-free static-analysis fast path; scales to 100k-node graphs, ignores -budget)")
	budget := flag.Int("budget", 200, "sample budget for search methods")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", runtime.NumCPU(),
		"CPU budget every fan-out in the process shares: rollouts, validation scoring, kernels (results are identical at any value)")
	sim := flag.Bool("sim", false, "evaluate candidates on the hardware simulator (slower, checks memory)")
	dotPath := flag.String("dot", "", "also write the partitioned graph as Graphviz DOT")
	pretrainN := flag.Int("pretrain", 0, "pre-train on the first N synthetic corpus graphs before planning")
	policyPath := flag.String("policy", "", "load a saved policy artifact (must match the package)")
	savePolicy := flag.String("save-policy", "", "save the pre-trained policy artifact to this path")
	timeout := flag.Duration("timeout", 0, "wall-clock bound; on expiry the best-so-far partition is printed (0 = none)")
	progress := flag.Bool("progress", false, "stream (samples, best-so-far) progress to stderr")
	flag.Parse()

	parallel.SetDefault(*workers)

	if *graphPath == "" {
		fatal(fmt.Errorf("-graph is required"))
	}
	var g *graph.Graph
	if *graphPath == "bert" {
		g = mcmpart.BERT()
	} else {
		data, err := os.ReadFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		g = new(graph.Graph)
		if err := g.UnmarshalJSON(data); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *graphPath, err))
		}
	}
	pkg, err := mcm.Load(*mcmSpec)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	planner, err := mcmpart.NewPlanner(pkg)
	if err != nil {
		fatal(err)
	}
	if *policyPath != "" && *pretrainN > 0 {
		fatal(fmt.Errorf("-policy and -pretrain are mutually exclusive"))
	}
	if *policyPath != "" {
		if err := planner.LoadPolicy(*policyPath); err != nil {
			fatal(err)
		}
	}
	pretrainInterrupted := false
	if *pretrainN > 0 {
		corpus := mcmpart.CorpusGraphs(*seed)
		if *pretrainN > len(corpus) {
			fatal(fmt.Errorf("-pretrain %d exceeds the %d-graph corpus", *pretrainN, len(corpus)))
		}
		opts := mcmpart.PretrainOptions{Seed: *seed}
		if *progress {
			opts.Progress = progressFunc("pretrain")
		}
		fmt.Fprintf(os.Stderr, "mcmpart: pre-training on %d corpus graphs...\n", *pretrainN)
		if _, err := planner.Pretrain(ctx, corpus[:*pretrainN], opts); err != nil {
			// A timeout/cancel mid-pretrain still installed the
			// best-so-far policy; preserve it (save below) instead of
			// discarding the work, but skip the plan — its budget is gone.
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				fatal(err)
			}
			pretrainInterrupted = true
			fmt.Fprintf(os.Stderr, "mcmpart: %v during pre-training; best-so-far policy installed\n", err)
		}
	}
	if *savePolicy != "" {
		if err := planner.SavePolicy(*savePolicy); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mcmpart: saved policy artifact to %s\n", *savePolicy)
	}
	if pretrainInterrupted {
		fatal(fmt.Errorf("timeout expired during pre-training; plan not run"))
	}

	planOpts := mcmpart.PlanOptions{
		Method:       mcmpart.Method(*method),
		SampleBudget: *budget,
		Seed:         *seed,
		UseSimulator: *sim,
	}
	if *progress {
		planOpts.Progress = progressFunc("plan")
	}
	res, err := planner.Plan(ctx, g, planOpts)
	timedOut := false
	if err != nil {
		if res == nil || !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			fatal(err)
		}
		// Deadline hit with a best-so-far result: report it.
		timedOut = true
		fmt.Fprintf(os.Stderr, "mcmpart: %v; reporting best-so-far after %d samples\n", err, res.Samples)
	}
	hw := mcmpart.Evaluate(g, pkg, res.Partition)
	out := struct {
		Graph       string                 `json:"graph"`
		Package     string                 `json:"package"`
		Method      string                 `json:"method"`
		Partition   mcmpart.Partition      `json:"partition"`
		Throughput  float64                `json:"throughput"`
		Improvement float64                `json:"improvement_over_greedy"`
		Samples     int                    `json:"samples"`
		TimedOut    bool                   `json:"timed_out,omitempty"`
		FailCounts  map[string]int         `json:"fail_counts,omitempty"`
		Hardware    mcmpart.HardwareResult `json:"hardware"`
	}{g.Name(), pkg.Name, *method, res.Partition, res.Throughput, res.Improvement, res.Samples, timedOut, res.FailCounts, hw}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := g.WriteDOT(f, res.Partition); err != nil {
			fatal(err)
		}
	}
}

// progressFunc returns a stderr progress streamer that reports every 50
// samples (and the first).
func progressFunc(stage string) mcmpart.ProgressFunc {
	start := time.Now()
	return func(ev mcmpart.ProgressEvent) {
		if ev.Samples%50 == 0 || ev.Samples == 1 {
			fmt.Fprintf(os.Stderr, "mcmpart: %s %6d samples  best %.3fx  (%.1fs)\n",
				stage, ev.Samples, ev.BestImprovement, time.Since(start).Seconds())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcmpart:", err)
	os.Exit(1)
}
