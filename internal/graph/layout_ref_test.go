package graph_test

import (
	"container/heap"
	"slices"
	"testing"

	"mcmpart/internal/graph"
)

// The functions below are the loops Graph.Layout replaced, kept verbatim
// (receiver fields turned into parameters and results, nothing else) from
// the commit before it (2515b93) as the reference the layout must equal
// element for element:
//
//	refTopoOrder         graph.(*Graph).TopoOrder      internal/graph/topo.go:9-59
//	refSegmenterNext     cpsolver.NewSegmenter         internal/cpsolver/segment.go:79-101
//	refSegmenterCapacity cpsolver.(*Segmenter).capacity internal/cpsolver/segment.go:115-124
//	refBoundaryCapacity  cpsolver.boundaryCapacity     internal/cpsolver/solver.go:445-480
//	refAnalyzeBoundary   analyze.buildBoundaryStructure internal/analyze/analyze.go:188-212
//	refGreedyNextGap     search.greedyBudget           internal/search/search.go:148-172

type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refTopoOrder(g *graph.Graph) ([]int, error) {
	n := g.NumNodes()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.InEdges(v))
	}
	h := &intHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			*h = append(*h, v)
		}
	}
	heap.Init(h)
	order := make([]int, 0, n)
	for h.Len() > 0 {
		v := heap.Pop(h).(int)
		order = append(order, v)
		for _, e := range g.OutEdges(v) {
			w := g.Edge(int(e)).To
			indeg[w]--
			if indeg[w] == 0 {
				heap.Push(h, w)
			}
		}
	}
	if len(order) != n {
		return nil, graph.ErrCycle
	}
	return order, nil
}

func refSegmenterNext(g *graph.Graph, order []int) (pos, next []int32) {
	n := g.NumNodes()
	pos = make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	next = make([]int32, n)
	for i := range next {
		next[i] = int32(i) + 1
	}
	for _, e := range g.Edges() {
		pu, pv := pos[e.From], pos[e.To]
		if pv > next[pu] {
			next[pu] = pv
		}
	}
	for i := 1; i < n; i++ {
		if next[i-1] > next[i] {
			next[i] = next[i-1]
		}
	}
	return pos, next
}

func refSegmenterCapacity(order []int, next []int32) int {
	n := len(order)
	count := 0
	for g := 0; g < n-1; {
		count++
		g = int(next[g])
	}
	return count
}

func refBoundaryCapacity(g *graph.Graph, topoPos []int32) []int32 {
	n := g.NumNodes()
	prefMax := make([]int32, n)
	for i := range prefMax {
		prefMax[i] = int32(i) + 1
	}
	for _, e := range g.Edges() {
		pu, pv := topoPos[e.From], topoPos[e.To]
		if pv > prefMax[pu] {
			prefMax[pu] = pv
		}
	}
	for i := 1; i < n; i++ {
		if prefMax[i-1] > prefMax[i] {
			prefMax[i] = prefMax[i-1]
		}
	}
	caps := make([]int32, n+1)
	for p := n - 1; p >= 0; p-- {
		next := prefMax[p]
		if next >= int32(n) {
			caps[p] = 0 // an edge spans from here past the last node's gap
			continue
		}
		caps[p] = 1 + caps[next]
	}
	return caps
}

func refAnalyzeBoundary(g *graph.Graph, pos []int32) (next, capFrom []int32) {
	n := g.NumNodes()
	next = make([]int32, n)
	for i := range next {
		next[i] = int32(i) + 1
	}
	for _, e := range g.Edges() {
		pu, pv := pos[e.From], pos[e.To]
		if pv > next[pu] {
			next[pu] = pv
		}
	}
	for i := 1; i < n; i++ {
		if next[i-1] > next[i] {
			next[i] = next[i-1]
		}
	}
	// capFrom[p] = boundaries placeable at gaps >= p: 0 past the last gap,
	// else one at p plus whatever fits after its pair-rule shadow.
	capFrom = make([]int32, n+1)
	for p := n - 2; p >= 0; p-- {
		capFrom[p] = 1 + capFrom[next[p]]
	}
	return next, capFrom
}

func refGreedyNextGap(g *graph.Graph, order []int) (pos, nextGap []int) {
	n := len(order)
	pos = make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	// nextGap[g] = earliest legal gap after a boundary at gap g (no edge
	// span may contain two boundaries).
	nextGap = make([]int, n)
	for i := range nextGap {
		nextGap[i] = i + 1
	}
	for _, e := range g.Edges() {
		if pu := pos[e.From]; pos[e.To] > nextGap[pu] {
			nextGap[pu] = pos[e.To]
		}
	}
	for i := 1; i < n; i++ {
		if nextGap[i-1] > nextGap[i] {
			nextGap[i] = nextGap[i-1]
		}
	}
	return pos, nextGap
}

func widen(a []int32) []int {
	out := make([]int, len(a))
	for i, x := range a {
		out[i] = int(x)
	}
	return out
}

// TestLayoutMatchesTheLoopsItReplaced requires every Layout field to equal,
// element for element, what each of the four deleted copies computed — so
// the solver's family, the analysis's domains and the greedy baseline are
// the parent's by construction. cpsolver's caps and analyze's capFrom were
// written differently (one stops at prefMax >= n, the other starts at n-2);
// they agree on every input here, so Layout carries one CapFrom.
func TestLayoutMatchesTheLoopsItReplaced(t *testing.T) {
	for _, g := range layoutTestGraphs() {
		name := g.String()
		lay, err := g.Layout()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		order, err := refTopoOrder(g)
		if err != nil {
			t.Fatalf("%s: reference order: %v", name, err)
		}
		if !slices.Equal(lay.Order, order) {
			t.Fatalf("%s: Order differs from the container/heap Kahn pass", name)
		}
		segPos, segNext := refSegmenterNext(g, order)
		anaNext, anaCap := refAnalyzeBoundary(g, segPos)
		greedyPos, greedyNext := refGreedyNextGap(g, order)
		if !slices.Equal(lay.Pos, segPos) || !slices.Equal(widen(lay.Pos), greedyPos) {
			t.Errorf("%s: Pos is not the inverse the consumers built", name)
		}
		if !slices.Equal(lay.Next, segNext) {
			t.Errorf("%s: Next differs from cpsolver.NewSegmenter's next", name)
		}
		if !slices.Equal(lay.Next, anaNext) {
			t.Errorf("%s: Next differs from analyze's next", name)
		}
		if !slices.Equal(widen(lay.Next), greedyNext) {
			t.Errorf("%s: Next differs from search.greedyBudget's nextGap", name)
		}
		if !slices.Equal(lay.CapFrom, refBoundaryCapacity(g, segPos)) {
			t.Errorf("%s: CapFrom differs from cpsolver.boundaryCapacity's caps", name)
		}
		if !slices.Equal(lay.CapFrom, anaCap) {
			t.Errorf("%s: CapFrom differs from analyze's capFrom", name)
		}
		if got, want := int(lay.CapFrom[0]), refSegmenterCapacity(order, segNext); got != want {
			t.Errorf("%s: CapFrom[0] = %d, Segmenter.capacity() was %d", name, got, want)
		}
	}
}
