package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"mcmpart"
	"mcmpart/internal/parallel"
)

// runSeconds is the nominal length of one measured phase on the sizing
// host; BENCHMARK.json's run_seconds carries the same number. Op counts are
// frozen for that length and scale with -seconds in whole quanta, so a run
// executes an exact, repeatable number of ops rather than "as many as fit".
const runSeconds = 20

// calibRefMs is the reference kernel's median on the sizing host, frozen
// from the baseline runs in README.md. Every wall-clock end-to-end metric is
// reported as if the kernel had taken this long.
const calibRefMs = 80.0

// sizing is the frozen shape of a workload's measured phase.
type sizing struct {
	ops         int // measured ops: frozen for runSeconds, scaled by scaled()
	quantum     int // op counts are multiples of this (seed cycle × segment)
	clients     int // closed-loop callers
	segOps      int // ops per client between calibration pauses
	calibPerGap int // reference-kernel calls per pause
	setupReps   int // set-ups per run; setup_s is their median
	bigNodes    int // nodes of each generated layered graph
}

// scaled returns the sizing for a run of the given length: the frozen op
// count scaled in whole quanta.
func (sz sizing) scaled(seconds int) sizing {
	sz.ops = sz.wholeQuanta(sz.ops * seconds / runSeconds)
	return sz
}

// wholeQuanta rounds an op count down to whole quanta, at least one.
func (sz sizing) wholeQuanta(ops int) int {
	return max(ops/sz.quantum*sz.quantum, sz.quantum)
}

type workload struct {
	name   string
	why    string
	sizing sizing
	setup  func(ctx context.Context, seed int64, sz sizing) (*instance, error)
}

var workloads = []workload{
	{
		name:   "bert-rl",
		why:    "The paper's headline case: RL from scratch on BERT/edge36; rl+gnn+nn+mat do nearly all the work and the serving front end none.",
		sizing: sizing{ops: 9, quantum: 3, clients: 1, segOps: 1, calibPerGap: 4, setupReps: 9},
		setup:  setupBERT(3, mcmpart.PlanOptions{Method: mcmpart.MethodRL, SampleBudget: 32}),
	},
	{
		name:   "bert-search-sim",
		why:    "Same graph, no neural network: simulated annealing on the simulator, so cpsolver+hwsim+search do the work and a kernel change must not move it.",
		sizing: sizing{ops: 48, quantum: 12, clients: 1, segOps: 3, calibPerGap: 2, setupReps: 9},
		setup:  setupBERT(4, mcmpart.PlanOptions{Method: mcmpart.MethodSA, SampleBudget: 64, UseSimulator: true}),
	},
	{
		name:   "serve-warm",
		why:    "Every op is a cache hit over HTTP on a 10k-node graph, so decode, validate, fingerprint, lookup and encode are all of the cost and the planner none.",
		sizing: sizing{ops: 160, quantum: 16, clients: 1, segOps: 16, calibPerGap: 3, setupReps: 5, bigNodes: 10000},
		setup:  setupServeWarm,
	},
	{
		name:   "serve-zeroshot",
		why:    "Every op is a miss planned zero-shot by a pre-trained policy from two clients: forward-only inference, pool dispatch and cache put with both vCPUs busy.",
		sizing: sizing{ops: 60, quantum: 6, clients: 2, segOps: 3, calibPerGap: 3, setupReps: 3},
		setup:  setupServeZeroShot,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// derive is the benchmark's only source of randomness: item idx of one
// stream of the run's -seed, through the repo's splitmix64 (seed, index)
// derivation applied twice.
func derive(seed int64, stream, idx int) uint64 {
	return uint64(parallel.Seed(parallel.Seed(seed, stream), idx))
}

// Streams of the derivation, one per use.
const (
	streamRotation = iota
	streamPermutation
	streamRename
)

// setupBERT builds the in-process planner workloads: Planner.Plan on BERT
// and edge36 with base options and plan seeds cycling 1..cycle. The plan
// seeds are part of the frozen workload, not of -seed: quality differs by
// 30 % between plan seeds, so -seed only rotates where the cycle starts and
// every run plans the same multiset of ops.
func setupBERT(cycle int, base mcmpart.PlanOptions) func(context.Context, int64, sizing) (*instance, error) {
	return func(ctx context.Context, seed int64, sz sizing) (*instance, error) {
		g := mcmpart.BERT()
		pkg := mcmpart.Edge36()
		pl, err := mcmpart.NewPlanner(pkg)
		if err != nil {
			return nil, err
		}
		// Session bring-up: the first plan a compiler would ask for, cheap
		// but through graph validation, baseline, solver and evaluator.
		first, err := pl.Plan(ctx, g, mcmpart.PlanOptions{Method: mcmpart.MethodRandom, SampleBudget: 32, UseSimulator: base.UseSimulator})
		if err != nil {
			return nil, fmt.Errorf("bring-up plan: %w", err)
		}
		if err := first.Partition.ValidateOn(g, pkg); err != nil {
			return nil, fmt.Errorf("bring-up plan: %w", err)
		}
		rot := int(derive(seed, streamRotation, 0) % uint64(cycle))
		planSeed := func(i int) int64 { return int64(1 + ((i+rot)%cycle+cycle)%cycle) }
		in := &instance{warmOps: cycle}
		if base.Method == mcmpart.MethodRL {
			in.warmOps = 1 // one RL op costs seconds and already grows the heap to size
		}
		in.run = func(ctx context.Context, i int, ot *opTrace) opOutcome {
			opts := base
			opts.Seed = planSeed(i)
			if ot != nil {
				last := time.Now()
				opts.Progress = func(mcmpart.ProgressEvent) {
					now := time.Now()
					ot.tr.add("planner.sample", ot.root, ot.op, last, now)
					last = now
				}
			}
			res, err := pl.Plan(ctx, g, opts)
			return opOutcome{res: res, err: err}
		}
		in.verify = func(i int, o *opOutcome) error {
			if o.err != nil {
				return fmt.Errorf("op %d: %w", i, o.err)
			}
			if err := o.res.Partition.ValidateOn(g, pkg); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			return nil
		}
		// There is no cache to bypass here; the bit-identity check is that
		// every op of one plan seed, rounds apart, returned the same bits.
		in.recheck = func(_ context.Context, outcomes []opOutcome) []error {
			var errs []error
			firstOf := map[int64]int{}
			for i := range outcomes {
				s := planSeed(i)
				j, seen := firstOf[s]
				if !seen {
					firstOf[s] = i
					continue
				}
				if outcomes[i].res == nil || outcomes[j].res == nil || !sameResult(outcomes[i].res, outcomes[j].res) {
					errs = append(errs, fmt.Errorf("ops %d and %d (plan seed %d) differ", j, i, s))
				}
			}
			return errs
		}
		in.close = func() {}
		return in, nil
	}
}

// sameResult reports whether two results are the same plan, float bit for
// float bit.
func sameResult(a, b *mcmpart.Result) bool {
	if a == nil || b == nil {
		return false
	}
	if len(a.Partition) != len(b.Partition) || len(a.History) != len(b.History) ||
		a.Samples != b.Samples || len(a.FailCounts) != len(b.FailCounts) ||
		math.Float64bits(a.Throughput) != math.Float64bits(b.Throughput) ||
		math.Float64bits(a.Improvement) != math.Float64bits(b.Improvement) {
		return false
	}
	for i := range a.Partition {
		if a.Partition[i] != b.Partition[i] {
			return false
		}
	}
	for i := range a.History {
		if math.Float64bits(a.History[i]) != math.Float64bits(b.History[i]) {
			return false
		}
	}
	for k, v := range a.FailCounts {
		if b.FailCounts[k] != v {
			return false
		}
	}
	return true
}

// quality is the geometric mean of Result.Improvement over the ops that
// returned a plan.
func quality(outcomes []opOutcome) float64 {
	sum, n := 0.0, 0
	for i := range outcomes {
		if r := outcomes[i].res; r != nil && r.Improvement > 0 {
			sum += math.Log(r.Improvement)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
