// Package search implements the paper's non-learned comparison methods
// (Sec. 5.1): the greedy compiler heuristic used as the normalization
// baseline, random search through the constraint solver, and simulated
// annealing over the solver's input distribution.
//
//mcmlint:deterministic
//mcmlint:hotpath
package search

import (
	"context"
	"math"
	"math/rand"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
	"mcmpart/internal/rl"
)

// Random is the paper's Random search strategy: a fixed uniform probability
// distribution handed to the constraint solver's SAMPLE mode, best-of-budget
// (each iteration consumes one evaluation). Progress is recorded in the
// environment's History. Cancelling ctx stops before the next sample and
// returns ctx.Err(); the environment keeps its best-so-far trajectory.
func Random(ctx context.Context, env *rl.Env, budget int, rng *rand.Rand) error {
	for env.Samples < budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		env.StepProbs(nil, rng)
	}
	return nil
}

// SAConfig is Anneal's parameter. It has no fields: it stays only because
// bench/probes.go, which only ROADMAP item 1 may edit, names it in a call.
type SAConfig struct{}

// Simulated annealing's parameters (tuned empirically, as the paper notes
// its baselines were).
const (
	// saInitTemp is the initial Metropolis temperature in units of reward
	// (improvement ratio).
	saInitTemp = 0.2
	// saCooling multiplies the temperature each iteration.
	saCooling = 0.995
	// saPerturbFrac is the fraction of nodes whose distribution rows are
	// re-randomized per move.
	saPerturbFrac = 0.05
)

// Anneal is the paper's SA strategy: start from the uniform distribution;
// each iteration re-randomizes the distribution rows of a random subset of
// nodes, generates a valid partition through the solver's SAMPLE mode,
// evaluates it, and accepts or rejects the new distribution by the
// Metropolis rule. Cancelling ctx stops before the next sample and returns
// ctx.Err(); the environment keeps its best-so-far trajectory.
//
// The distribution is the environment's matrix (Env.ProbMatrix), and a
// move's scratch the environment's too (Env.MoveScratch), so a kit's
// environment anneals in the memory its last run filled. A proposal
// is made in it in place: the rows a move redraws are saved first, and put
// back, last first, when the move is rejected, so the matrix each sample
// reads is the current distribution with the move applied, as if it were a
// copy of it.
func Anneal(ctx context.Context, env *rl.Env, budget int, _ SAConfig, rng *rand.Rand) error {
	// The seeding evaluation below consumes one sample; without this guard
	// a zero (or already exhausted) budget would still burn it and overrun
	// the evaluation budget the figures' x-axes are measured in.
	if env.Samples >= budget {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	n := env.Ctx.G.NumNodes()
	c := env.Part.Chips()
	probs := env.ProbMatrix()
	for _, row := range probs {
		for j := range row {
			row[j] = 1 / float64(c)
		}
	}
	currentReward := env.StepProbs(probs, rng)
	temp := saInitTemp
	k := int(saPerturbFrac * float64(n))
	if k < 1 {
		k = 1
	}
	moved, saved := env.MoveScratch(k) // the rows a move redraws, in order, and what each held before
	for env.Samples < budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		//mcmlint:ignore ctxloop perturbing k rows takes no samples; the annealing loop above checks ctx every step
		for i := 0; i < k; i++ {
			moved[i] = rng.Intn(n)
			row := probs[moved[i]]
			copy(saved[i*c:(i+1)*c], row)
			var sum float64
			for j := range row {
				row[j] = -math.Log(1 - rng.Float64()) // Exp(1) -> Dirichlet(1)
				sum += row[j]
			}
			for j := range row {
				row[j] /= sum
			}
		}
		r := env.StepProbs(probs, rng)
		if r >= currentReward || rng.Float64() < math.Exp((r-currentReward)/temp) {
			currentReward = r
		} else {
			for i := k - 1; i >= 0; i-- {
				copy(probs[moved[i]], saved[i*c:(i+1)*c])
			}
		}
		temp *= saCooling
	}
	return nil
}

// GreedyPackage is the production compiler's O(N) heuristic the paper
// normalizes all throughput numbers against: walk the graph in topological
// order and fill each chip with operations until a conservative watermark of
// its own SRAM, then move to the next chip, placing every cut at the next gap
// no edge span straddles twice. Filling to capacity is what a validity-first
// backend does by default — it uses as few chips as memory allows and is
// oblivious to pipeline balance, which is exactly the headroom the paper's
// search methods exploit (their BERT partitions reach ~2.6x this baseline).
// On a homogeneous package every chip gets the same watermark, 7/10 of
// pkg.SRAMBytes, so the result is the single-budget heuristic's.
func GreedyPackage(g *graph.Graph, pkg *mcm.Package) partition.Partition {
	lay, err := g.Layout()
	if err != nil {
		panic("search: GreedyPackage: " + err.Error()) // every graph source validates
	}
	order := lay.Order
	n := len(order)
	memBudget := pkg.ChipSRAM(0) * 7 / 10
	p := make(partition.Partition, n)
	chip := 0
	var memOnChip, maxOut int64
	minGap := 0 // boundaries below this gap would double-cut an edge span (the pair rule)
	for idx, v := range order {
		node := g.Node(v)
		out := maxOut
		if node.OutputBytes > out {
			out = node.OutputBytes
		}
		// Conservative working-set estimate: pinned weights plus a few
		// live activation buffers of the largest tensor seen (fan-outs,
		// staged I/O and pipeline double-buffering).
		demand := memOnChip + node.ParamBytes + 4*out
		if memOnChip > 0 && demand > memBudget && chip < pkg.Chips-1 && idx > 0 && idx-1 >= minGap {
			chip++
			memBudget = pkg.ChipSRAM(chip) * 7 / 10
			memOnChip = 0
			maxOut = 0
			minGap = int(lay.Next[idx-1])
		}
		p[v] = chip
		memOnChip += node.ParamBytes
		if node.OutputBytes > maxOut {
			maxOut = node.OutputBytes
		}
	}
	return p
}
