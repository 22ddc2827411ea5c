package cpsolver

import (
	"fmt"
	"math/rand"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
)

// Partitioner turns policy outputs into valid partitions. It is the
// interface between the RL/search layers and the constraint machinery:
// SampleMode corresponds to the paper's Algorithm 1 (draw assignments from a
// probability matrix) and FixMode to Algorithm 2 (keep a concrete candidate
// wherever valid and repair the rest).
type Partitioner interface {
	// SampleMode draws a valid partition biased by the N x C probability
	// matrix (nil for uniform). The matrix is read during the call and not
	// retained: the caller may overwrite it for the next sample.
	SampleMode(probs [][]float64, rng *rand.Rand) (partition.Partition, error)
	// FixMode repairs the candidate partition y into a valid one,
	// preserving y wherever the constraints allow.
	FixMode(y []int, rng *rand.Rand) (partition.Partition, error)
	// NumNodes and Chips describe the instance.
	NumNodes() int
	Chips() int
}

// SampleMode implements Partitioner using Algorithm 1 with a fresh random
// node order per call, the paper's default.
func (s *Solver) SampleMode(probs [][]float64, rng *rand.Rand) (partition.Partition, error) {
	return s.Sample(RandomOrder(rng, s.NumNodes()), probs, rng)
}

// FixMode implements Partitioner using Algorithm 2 with a fresh random node
// order per call.
func (s *Solver) FixMode(y []int, rng *rand.Rand) (partition.Partition, error) {
	return s.Fix(RandomOrder(rng, s.NumNodes()), y, rng)
}

// SampleMode implements Partitioner by exact DP sampling over the
// contiguous family.
func (sg *Segmenter) SampleMode(probs [][]float64, rng *rand.Rand) (partition.Partition, error) {
	return sg.Sample(probs, rng)
}

// FixMode implements Partitioner by projecting the candidate onto the
// contiguous family.
func (sg *Segmenter) FixMode(y []int, rng *rand.Rand) (partition.Partition, error) {
	return sg.Fit(y, rng)
}

// NumNodes returns the number of nodes in the instance.
func (sg *Segmenter) NumNodes() int { return len(sg.order) }

// AutoThreshold is the node count above which NewAutoPkg prefers the segment
// sampler: with dozens of chips and dense skip/residual structure,
// backtracking search without clause learning stops being tractable beyond
// tens of nodes, while the contiguous family covers essentially all valid
// partitions of chain-dominated ML graphs.
const AutoThreshold = 64

// AutoChips is the chip count above which NewAutoPkg prefers the segment
// sampler even for small graphs: conflict density grows with the action
// space, and packages beyond ~8 chips push backtracking search past its
// budget on skip-heavy graphs.
const AutoChips = 8

// NewAutoPkg picks the right Partitioner for the package: the CP solver
// (Algorithms 1 and 2) for small graphs on small packages — where it
// explores the complete valid space, including non-contiguous layouts — and
// the segment sampler everywhere else. If the segmenter cannot be built it
// falls back to the CP solver. Options.ChipCapacityBytes applies to either
// backend (domain pruning plus accumulation in the CP solver, rejection
// sampling in the segmenter). For heterogeneous packages it defaults to each
// chip's SRAM size, a static per-chip weight-capacity bound (a necessary
// condition of the dynamic memory constraint, so little dies are never
// handed layers that cannot fit); homogeneous packages read only pkg.Chips
// and get no bound, keeping the default path bit-identical to the
// pre-heterogeneity solver.
func NewAutoPkg(g *graph.Graph, pkg *mcm.Package, opts Options) (Partitioner, error) {
	chips := pkg.Chips
	if pkg.Heterogeneous() && len(opts.ChipCapacityBytes) == 0 {
		caps := make([]int64, chips)
		for c := range caps {
			caps[c] = pkg.ChipSRAM(c)
		}
		opts.ChipCapacityBytes = caps
	}
	if caps := opts.ChipCapacityBytes; len(caps) != 0 && len(caps) != chips {
		return nil, fmt.Errorf("cpsolver: %d chip capacities for %d chips", len(caps), chips)
	}
	if g.NumNodes() <= AutoThreshold && chips <= AutoChips {
		return New(g, chips, opts)
	}
	if sg, err := NewSegmenter(g, chips); err == nil {
		sg.chipCap = opts.ChipCapacityBytes
		return sg, nil
	}
	return New(g, chips, opts)
}

var (
	_ Partitioner = (*Solver)(nil)
	_ Partitioner = (*Segmenter)(nil)
)
