package graph

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrCycle is returned when a graph that must be acyclic contains a cycle.
var ErrCycle = errors.New("graph: cycle detected")

// Layout is the static structure every search method works over: the nodes
// in dataflow order, and the rule that no edge may cross two chip
// boundaries (Sec. 4.1's constraints — it is what makes a contiguous
// segmentation of the order valid by construction). A Layout is computed
// once per graph state and shared by every caller: read it, never write it.
//
// Positions index Order. Gap g separates positions g and g+1, so chip
// boundaries live at gaps 0..n-2.
type Layout struct {
	// Order[p] is the node at position p: Kahn's algorithm, smallest ready
	// ID first.
	Order []int
	// Pos is the inverse of Order.
	Pos []int32
	// Next is the pair rule: a boundary at gap g cuts every edge whose span
	// contains g, and no edge may be cut twice, so the boundary after it
	// sits at gap Next[g] or later. One entry per position, nondecreasing.
	Next []int32
	// CapFrom[p] is the maximum number of boundaries still placeable at
	// gaps >= p (earliest placement is optimal because Next is
	// nondecreasing). It has n+1 entries and is zero from n-1 on.
	CapFrom []int32
}

// Chips is how many of a package's chips a contiguous layout can use: the
// pair rule admits at most CapFrom[0] boundaries (Eq. 3 permits any chip
// prefix). CapFrom[0] is at most n-1, so every chunk holds a position.
func (l *Layout) Chips(chips int) int {
	return min(chips, int(l.CapFrom[0])+1)
}

// Emit is the partition of a contiguous layout: the node at each position
// gets the chip of its chunk, and the chip advances after every boundary
// gap in bounds (ascending). It is written into dst and returned when dst
// has one entry per node; otherwise a new partition is returned.
func (l *Layout) Emit(dst, bounds []int) []int {
	p := dst
	if len(p) != len(l.Order) {
		p = make([]int, len(l.Order))
	}
	chip, bi := 0, 0
	for pos, v := range l.Order {
		p[v] = chip
		for bi < len(bounds) && bounds[bi] == pos {
			chip++
			bi++
		}
	}
	return p
}

// derived is everything memoized from the graph's nodes and edges: the
// packed adjacency, the layout and the canonicalization. One record serves
// one graph state — (nodes, edges) counts are the staleness rule, because
// AddNode and AddEdge only grow the graph and mutating node or edge fields
// in place is already forbidden by the Nodes/Edges contract; UnmarshalJSON,
// the one operation that replaces the structure, drops the record. The
// adjacency is built with the record, because everything else here reads it
// and the accessors the solvers call per node then cost one pointer check;
// the layout and the canonicalization fill on first use under their own
// Once. Readers of a graph that is no longer being mutated may share the
// record from any number of goroutines.
type derived struct {
	nodes, edges int

	adj adjacency

	layoutOnce sync.Once
	layout     *Layout
	layoutErr  error

	fpOnce      sync.Once
	fingerprint string
	canonical   []int
	// canonicalized is set once fingerprint and canonical are, by fpOnce's
	// function (Graph.Canonicalized).
	canonicalized atomic.Bool

	digestOnce sync.Once
	digest     [32]byte // Graph.StructureDigest
}

// derived returns the record for the graph's current state, starting a new
// one when the graph grew since the last. Readers racing to be first each
// build an adjacency and all leave with the one that was installed.
func (g *Graph) derived() *derived {
	for {
		old := g.memo.Load()
		if old != nil && old.nodes == len(g.nodes) && old.edges == len(g.edges) {
			return old
		}
		d := &derived{nodes: len(g.nodes), edges: len(g.edges), adj: buildAdjacency(len(g.nodes), g.edges)}
		if g.memo.CompareAndSwap(old, d) {
			return d
		}
	}
}

// Layout returns the graph's layout, or ErrCycle if the graph is not a DAG.
// The result is memoized and shared; callers must not modify it.
func (g *Graph) Layout() (*Layout, error) {
	d := g.derived()
	d.layoutOnce.Do(func() { d.layout, d.layoutErr = buildLayout(g) })
	return d.layout, d.layoutErr
}

// idHeap is a binary min-heap of node IDs: it makes the topological order
// deterministic (smallest ready ID first) without boxing every ID the way
// container/heap would.
type idHeap []int

func (h *idHeap) push(v int) {
	s := append(*h, v)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

func (h *idHeap) pop() int {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		child := 2*i + 1
		if child >= last {
			break
		}
		if child+1 < last && s[child+1] < s[child] {
			child++
		}
		if s[i] <= s[child] {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	*h = s
	return top
}

func buildLayout(g *Graph) (*Layout, error) {
	n := len(g.nodes)
	adj := g.adjacency()
	indeg := make([]int32, n)
	var ready idHeap
	for v := range indeg {
		indeg[v] = int32(len(adj.in(v)))
		if indeg[v] == 0 {
			ready = append(ready, v) // ascending IDs are already a heap
		}
	}
	l := &Layout{
		Order:   make([]int, 0, n),
		Pos:     make([]int32, n),
		Next:    make([]int32, n),
		CapFrom: make([]int32, n+1),
	}
	for len(ready) > 0 {
		v := ready.pop()
		l.Pos[v] = int32(len(l.Order))
		l.Order = append(l.Order, v)
		for _, e := range adj.out(v) {
			w := g.edges[e].To
			if indeg[w]--; indeg[w] == 0 {
				ready.push(w)
			}
		}
	}
	if len(l.Order) != n {
		return nil, ErrCycle
	}
	for i := range l.Next {
		l.Next[i] = int32(i) + 1
	}
	for _, e := range g.edges {
		if pu, pv := l.Pos[e.From], l.Pos[e.To]; pv > l.Next[pu] {
			l.Next[pu] = pv
		}
	}
	for i := 1; i < n; i++ {
		if l.Next[i-1] > l.Next[i] {
			l.Next[i] = l.Next[i-1]
		}
	}
	for p := n - 2; p >= 0; p-- {
		l.CapFrom[p] = 1 + l.CapFrom[l.Next[p]]
	}
	return l, nil
}

// Depths returns, for every node, the length of the longest path from any
// source (in-degree-zero node) to it, in edges. Sources have depth 0.
// It returns an error if the graph has a cycle.
//
// Depth normalized by the maximum depth is the "pipeline position" feature
// used by the policy network: nodes early in the dataflow should gravitate to
// low chip IDs and late nodes to high chip IDs.
func (g *Graph) Depths() ([]int, error) {
	l, err := g.Layout()
	if err != nil {
		return nil, err
	}
	depth := make([]int, len(g.nodes))
	for _, v := range l.Order {
		for _, e := range g.OutEdges(v) {
			w := g.edges[e].To
			if d := depth[v] + 1; d > depth[w] {
				depth[w] = d
			}
		}
	}
	return depth, nil
}
