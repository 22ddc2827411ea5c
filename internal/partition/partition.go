// Package partition represents assignments of computation-graph nodes to
// MCM chiplets and checks the static hardware constraints of the paper's
// problem formulation (Sec. 3, Eq. 5):
//
//  1. acyclic dataflow   — f(u) <= f(v) for every edge (u,v) (Eq. 2),
//  2. no skipping chips  — used chips form the contiguous prefix {0..K} (Eq. 3),
//  3. triangle dependency — a direct dependency between two chips may not
//     coexist with an indirect dependency between the same chips (Eq. 4).
//
// The dynamic constraint H(G,f) (Eq. 5, last line) is checked by the
// hardware simulator in internal/hwsim, not here, mirroring the paper: the
// static constraints are what the CP solver can enforce, the dynamic one only
// surfaces when a candidate is compiled and run.
package partition

import (
	"errors"
	"fmt"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
)

// Partition maps node IDs to chip IDs: Partition[v] is the chip the node v
// is placed on. It is the mapping function f of the paper.
type Partition []int

// Clone returns a copy of the partition.
func (p Partition) Clone() Partition {
	return append(Partition(nil), p...)
}

// NumChipsUsed returns the number of distinct chips that host at least one
// node. For a valid partition this equals max(p)+1.
func (p Partition) NumChipsUsed() int {
	used := make(map[int]bool, len(p))
	for _, c := range p {
		used[c] = true
	}
	return len(used)
}

// MaxChip returns the highest chip ID used, or -1 for an empty partition.
func (p Partition) MaxChip() int {
	max := -1
	for _, c := range p {
		if c > max {
			max = c
		}
	}
	return max
}

// Violation kinds distinguishable with errors.Is.
var (
	ErrLength             = errors.New("partition: wrong length")
	ErrChipRange          = errors.New("partition: chip ID out of range")
	ErrAcyclicDataflow    = errors.New("partition: acyclic dataflow constraint violated")
	ErrSkippedChip        = errors.New("partition: no-skipping-chips constraint violated")
	ErrTriangleDependency = errors.New("partition: chip triangle dependency constraint violated")
	ErrUnroutableTransfer = errors.New("partition: cut edge has no route on the package topology")
)

// Validate checks the three static constraints against the graph and a
// package with the given chip count. It returns nil for a valid partition, or
// an error wrapping one of ErrLength, ErrChipRange, ErrAcyclicDataflow,
// ErrSkippedChip or ErrTriangleDependency describing the first violation
// found.
func (p Partition) Validate(g *graph.Graph, chips int) error {
	if len(p) != g.NumNodes() {
		return fmt.Errorf("%w: %d entries for %d nodes", ErrLength, len(p), g.NumNodes())
	}
	for v, c := range p {
		if c < 0 || c >= chips {
			return fmt.Errorf("%w: node %d on chip %d (chips=%d)", ErrChipRange, v, c, chips)
		}
	}
	// Constraint 1: f(u) <= f(v) for every edge.
	for _, e := range g.Edges() {
		if p[e.From] > p[e.To] {
			return fmt.Errorf("%w: edge (%d,%d) flows from chip %d back to chip %d",
				ErrAcyclicDataflow, e.From, e.To, p[e.From], p[e.To])
		}
	}
	// Constraint 2: used chips form the prefix {0..max}.
	var used uint64
	maxChip := 0
	for v, c := range p {
		if c >= mcm.MaxChips {
			return fmt.Errorf("%w: node %d on chip %d, beyond the %d chips a package can have", ErrChipRange, v, c, mcm.MaxChips)
		}
		used |= 1 << c
		if c > maxChip {
			maxChip = c
		}
	}
	for d := 0; d <= maxChip; d++ {
		if used&(1<<d) == 0 {
			return fmt.Errorf("%w: chip %d is skipped (chips 0..%d in use)", ErrSkippedChip, d, maxChip)
		}
	}
	// Constraint 3: delta(f(u), f(v)) == 1 for every cut edge, where delta
	// is the longest path in the chip-level dependency graph. Both tables
	// are fixed-size values: a valid partition is checked without
	// allocating.
	var adj chipAdjacency
	for _, e := range g.Edges() {
		if a, b := p[e.From], p[e.To]; a != b {
			adj[a] |= 1 << b
		}
	}
	var dist chipDistances
	dist.longestPaths(&adj, maxChip+1)
	for a := 0; a <= maxChip; a++ {
		for b := a + 1; b <= maxChip; b++ {
			if adj.has(a, b) && dist[a][b] > 1 {
				return fmt.Errorf("%w: chips %d and %d have both a direct and an indirect dependency (longest path %d)",
					ErrTriangleDependency, a, b, dist[a][b])
			}
		}
	}
	return nil
}

// ValidateOn checks a partition against a concrete package: the three
// static constraints of Validate (with the package's chip count) plus
// transfer routability — every cut edge must have a route on the package's
// interconnect topology. On the default uni-directional ring routability is
// implied by the acyclic dataflow constraint; richer or more restrictive
// topologies make it an independent check, and it is what keeps the
// evaluation environments (costmodel, hwsim) and the validator agreeing on
// which partitions are legal.
func (p Partition) ValidateOn(g *graph.Graph, pkg *mcm.Package) error {
	if err := p.Validate(g, pkg.Chips); err != nil {
		return err
	}
	topo, err := pkg.Topo()
	if err != nil {
		return err
	}
	for _, e := range g.Edges() {
		a, b := p[e.From], p[e.To]
		if a == b {
			continue
		}
		if _, ok := topo.Hops(a, b); !ok {
			return fmt.Errorf("%w: edge (%d,%d) needs chip %d -> %d on %s",
				ErrUnroutableTransfer, e.From, e.To, a, b, topo.Kind())
		}
	}
	return nil
}

// chipAdjacency is the chip-level dependency graph induced by cut edges: bit
// b of row a is set when some graph edge flows from a node on chip a to a
// node on chip b, a != b. Only meaningful after constraint 1 holds, so a < b.
type chipAdjacency [mcm.MaxChips]uint64

func (adj *chipAdjacency) has(a, b int) bool { return adj[a]&(1<<b) != 0 }

// chipDistances holds all-pairs longest path lengths (in edges) of a chip
// dependency DAG whose edges all go from lower to higher IDs; 0 means no
// path. A path visits each chip at most once, so a length fits a byte.
type chipDistances [mcm.MaxChips][mcm.MaxChips]uint8

// longestPaths fills dist for the first c chips of adj. Chip counts are at
// most mcm.MaxChips, so the O(C^3) dynamic program is cheap.
func (dist *chipDistances) longestPaths(adj *chipAdjacency, c int) {
	// Process targets in increasing order; all edges go low -> high, so by
	// the time we compute dist[a][b] every dist[a][m] with m < b is final.
	for a := 0; a < c; a++ {
		for b := a + 1; b < c; b++ {
			best := uint8(0)
			if adj.has(a, b) {
				best = 1
			}
			for m := a + 1; m < b; m++ {
				if adj.has(m, b) && dist[a][m] > 0 {
					if d := dist[a][m] + 1; d > best {
						best = d
					}
				}
			}
			dist[a][b] = best
		}
	}
}

// ChipLoad aggregates the per-chip resource usage of a partition.
type ChipLoad struct {
	// FLOPs is the total compute placed on the chip.
	FLOPs float64
	// ParamBytes is the total weight footprint placed on the chip.
	ParamBytes int64
	// Nodes is the number of nodes placed on the chip.
	Nodes int
	// BytesIn and BytesOut are the cut-edge traffic entering and leaving
	// the chip.
	BytesIn, BytesOut int64
}

// Loads returns per-chip resource usage for chips 0..chips-1.
func (p Partition) Loads(g *graph.Graph, chips int) []ChipLoad {
	loads := make([]ChipLoad, chips)
	for v, c := range p {
		n := g.Node(v)
		loads[c].FLOPs += n.FLOPs
		loads[c].ParamBytes += n.ParamBytes
		loads[c].Nodes++
	}
	for _, e := range g.Edges() {
		a, b := p[e.From], p[e.To]
		if a != b {
			loads[a].BytesOut += e.Bytes
			loads[b].BytesIn += e.Bytes
		}
	}
	return loads
}

// Imbalance returns max-chip FLOPs divided by mean-chip FLOPs across the
// chips actually used; 1.0 is perfectly balanced. It is a cheap proxy for
// partition quality used in logs and tests.
func (p Partition) Imbalance(g *graph.Graph) float64 {
	used := p.MaxChip() + 1
	if used <= 0 {
		return 0
	}
	loads := p.Loads(g, used)
	var sum, max float64
	for _, l := range loads {
		sum += l.FLOPs
		if l.FLOPs > max {
			max = l.FLOPs
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(used))
}

// String renders the partition compactly, e.g. "[0 0 1 2 2]".
func (p Partition) String() string {
	return fmt.Sprintf("%v", []int(p))
}
