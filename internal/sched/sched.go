// Package sched implements the compiler-backend pass the paper's dynamic
// constraint H(G,f) hinges on: given a partition, it list-schedules the
// operations of each chip and computes the peak SRAM working set. Whether a
// partition fits in memory "requires knowledge of the order of scheduling of
// operations that is only determined at a later compilation pass" (Sec. 1) —
// this package is that later pass.
//
//mcmlint:deterministic
//mcmlint:hotpath
package sched

import (
	"fmt"

	"mcmpart/internal/graph"
	"mcmpart/internal/partition"
)

// ChipSchedule is the execution plan and memory profile of one chip.
type ChipSchedule struct {
	// Ops lists the node IDs scheduled on the chip, in execution order
	// (topological within the chip).
	Ops []int
	// ParamBytes is the weight footprint pinned in SRAM for the whole run.
	ParamBytes int64
	// PeakActivationBytes is the maximum live activation working set over
	// the schedule, including buffers staged for and from remote chips.
	PeakActivationBytes int64
	// BytesIn and BytesOut are the chip's cut-edge traffic.
	BytesIn, BytesOut int64
}

// PeakBytes returns the chip's total SRAM demand assuming the given
// pipeline buffering factor on activations (2 = double buffering, the
// steady-state of a pipelined MCM).
func (cs *ChipSchedule) PeakBytes(pipelineFactor float64) int64 {
	return cs.ParamBytes + int64(pipelineFactor*float64(cs.PeakActivationBytes))
}

// Compute builds per-chip schedules for the partition. It returns an error
// if the partition is malformed; static constraint checking is the caller's
// concern (see partition.Validate).
//
// A chip's schedule is the graph's topological order restricted to the
// chip, so everything here is a pass over Layout.Order: the op lists are a
// counting sort into one backing array, and "the last local consumer" of a
// tensor is the consumer with the largest Layout.Pos — no per-chip index.
func Compute(g *graph.Graph, p partition.Partition, chips int) ([]ChipSchedule, error) {
	n := g.NumNodes()
	if len(p) != n {
		return nil, fmt.Errorf("sched: partition has %d entries for %d nodes", len(p), n)
	}
	lay, err := g.Layout()
	if err != nil {
		return nil, err
	}
	nodes, edges := g.Nodes(), g.Edges()
	scheds := make([]ChipSchedule, chips)
	count := make([]int, chips)
	for _, v := range lay.Order {
		c := p[v]
		if c < 0 || c >= chips {
			return nil, fmt.Errorf("sched: node %d on chip %d out of range", v, c)
		}
		count[c]++
		scheds[c].ParamBytes += nodes[v].ParamBytes
	}
	ops := make([]int, n)
	for c, k := range count {
		if k > 0 {
			scheds[c].Ops, ops = ops[:0:k], ops[k:]
		}
	}
	for _, e := range edges {
		if p[e.From] != p[e.To] {
			scheds[p[e.From]].BytesOut += e.Bytes
			scheds[p[e.To]].BytesIn += e.Bytes
		}
	}
	// Liveness. An op's output is allocated when the op runs and freed after
	// its last local consumer; tensors produced for remote chips (or for
	// nobody — stage outputs) stay live until the end of the stage (they are
	// drained by the inter-chip links), and tensors arriving from remote
	// chips are staged before the stage begins: a chip starts with its
	// BytesIn live.
	//
	// First pass: freeAt[q] accumulates the bytes whose last local use is
	// the op at layout position q.
	freeAt := make([]int64, n)
	for q, v := range lay.Order {
		c := p[v]
		scheds[c].Ops = append(scheds[c].Ops, v)
		last := int32(q)
		out := g.OutEdges(v)
		remote := len(out) == 0
		for _, ei := range out {
			to := edges[ei].To
			if p[to] != c {
				remote = true
			} else if lay.Pos[to] > last {
				last = lay.Pos[to]
			}
		}
		if !remote {
			freeAt[last] += nodes[v].OutputBytes
		}
	}
	// Second pass: interleave allocation and release per chip, tracking the
	// peak. Chips only meet in the iteration order; each has its own
	// running total.
	live := make([]int64, chips)
	for c := range scheds {
		live[c] = scheds[c].BytesIn
		scheds[c].PeakActivationBytes = live[c]
	}
	for q, v := range lay.Order {
		c := p[v]
		live[c] += nodes[v].OutputBytes
		if live[c] > scheds[c].PeakActivationBytes {
			scheds[c].PeakActivationBytes = live[c]
		}
		live[c] -= freeAt[q]
	}
	return scheds, nil
}
