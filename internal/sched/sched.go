// Package sched implements the compiler-backend pass the paper's dynamic
// constraint H(G,f) hinges on: given a partition, it list-schedules the
// operations of each chip and computes the peak SRAM working set. Whether a
// partition fits in memory "requires knowledge of the order of scheduling of
// operations that is only determined at a later compilation pass" (Sec. 1) —
// this package is that later pass.
//
//mcmlint:deterministic
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
func Compute(g *graph.Graph, p partition.Partition, chips int) ([]ChipSchedule, error) {
	if len(p) != g.NumNodes() {
		return nil, fmt.Errorf("sched: partition has %d entries for %d nodes", len(p), g.NumNodes())
	}
	lay, err := g.Layout()
	if err != nil {
		return nil, err
	}
	scheds := make([]ChipSchedule, chips)
	for _, v := range lay.Order {
		c := p[v]
		if c < 0 || c >= chips {
			return nil, fmt.Errorf("sched: node %d on chip %d out of range", v, c)
		}
		scheds[c].Ops = append(scheds[c].Ops, v)
		scheds[c].ParamBytes += g.Node(v).ParamBytes
	}
	for c := range scheds {
		analyzeLiveness(g, p, &scheds[c], c)
	}
	for _, e := range g.Edges() {
		if p[e.From] != p[e.To] {
			scheds[p[e.From]].BytesOut += e.Bytes
			scheds[p[e.To]].BytesIn += e.Bytes
		}
	}
	return scheds, nil
}

// analyzeLiveness walks the chip's schedule computing the peak live
// activation bytes. An op's output is allocated when the op runs and freed
// after its last local consumer; tensors produced for remote chips stay live
// until the end of the stage (they are drained by the inter-chip links), and
// tensors arriving from remote chips are staged from the start of the stage.
func analyzeLiveness(g *graph.Graph, p partition.Partition, cs *ChipSchedule, chip int) {
	if len(cs.Ops) == 0 {
		return
	}
	pos := make(map[int]int, len(cs.Ops))
	for i, v := range cs.Ops {
		pos[v] = i
	}
	// First pass: freeAt[i] accumulates the bytes whose last local use is
	// schedule slot i. Outputs read by remote chips (or by nobody — stage
	// outputs) stay live until the link drains them at stage end.
	freeAt := make([]int64, len(cs.Ops))
	for i, v := range cs.Ops {
		last := i
		remote := g.OutDegree(v) == 0
		for _, ei := range g.OutEdges(v) {
			e := g.Edge(int(ei))
			if p[e.To] == chip {
				if j := pos[e.To]; j > last {
					last = j
				}
			} else {
				remote = true
			}
		}
		if !remote {
			freeAt[last] += g.Node(v).OutputBytes
		}
	}
	// Second pass: interleave allocation and release, tracking the peak.
	// Remote inputs are staged before the stage begins.
	var live int64
	for _, v := range cs.Ops {
		for _, ei := range g.InEdges(v) {
			e := g.Edge(int(ei))
			if p[e.From] != chip {
				live += e.Bytes
			}
		}
	}
	peak := live
	for i, v := range cs.Ops {
		live += g.Node(v).OutputBytes
		if live > peak {
			peak = live
		}
		live -= freeAt[i]
	}
	cs.PeakActivationBytes = peak
}
