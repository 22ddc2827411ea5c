package sched

import (
	"fmt"

	"mcmpart/internal/graph"
	"mcmpart/internal/partition"
)

// refCompute and refAnalyzeLiveness are Compute and analyzeLiveness as they
// stood on the commit before the scheduler became a counting pass (1f86993:
// appended per-chip op lists, a map from node to schedule slot per chip),
// kept verbatim as the reference TestComputeMatchesReference compares the
// new pass with. Only the names changed; to check:
//
//	git show 1f86993:internal/sched/sched.go | sed -n '39,125p' |
//	  sed -e 's/\bCompute\b/refCompute/g' -e 's/\banalyzeLiveness\b/refAnalyzeLiveness/g' |
//	  diff - <(sed -n '/^\/\/ refCompute builds/,$p' internal/sched/sched_ref_test.go)

// refCompute builds per-chip schedules for the partition. It returns an error
// if the partition is malformed; static constraint checking is the caller's
// concern (see partition.Validate).
func refCompute(g *graph.Graph, p partition.Partition, chips int) ([]ChipSchedule, error) {
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
		refAnalyzeLiveness(g, p, &scheds[c], c)
	}
	for _, e := range g.Edges() {
		if p[e.From] != p[e.To] {
			scheds[p[e.From]].BytesOut += e.Bytes
			scheds[p[e.To]].BytesIn += e.Bytes
		}
	}
	return scheds, nil
}

// refAnalyzeLiveness walks the chip's schedule computing the peak live
// activation bytes. An op's output is allocated when the op runs and freed
// after its last local consumer; tensors produced for remote chips stay live
// until the end of the stage (they are drained by the inter-chip links), and
// tensors arriving from remote chips are staged from the start of the stage.
func refAnalyzeLiveness(g *graph.Graph, p partition.Partition, cs *ChipSchedule, chip int) {
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
