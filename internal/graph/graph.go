// Package graph provides the computation-graph substrate of the partitioner:
// a directed acyclic graph of tensor operations annotated with compute and
// memory costs.
//
// A Graph corresponds to G = (V, E) in the paper's problem formulation
// (Sec. 3): V is the set of operations and E the set of data dependencies.
// Every edge carries the number of bytes transferred from producer to
// consumer, which the cost models turn into inter-chip communication time
// when the edge is cut by a partition.
//
//mcmlint:deterministic
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Node is a single tensor operation.
type Node struct {
	// ID is the node's index in the graph; Graph.AddNode assigns IDs
	// densely starting from zero.
	ID int `json:"id"`
	// Name is a human-readable label, e.g. "layer3/conv2".
	Name string `json:"name"`
	// Op is the operator kind.
	Op OpKind `json:"op"`
	// FLOPs is the amount of compute the operation performs (floating
	// point operations, or any consistent work unit).
	FLOPs float64 `json:"flops"`
	// ParamBytes is the size of the operation's resident weights. Weights
	// stay pinned in the SRAM of whichever chip the node is placed on.
	ParamBytes int64 `json:"param_bytes"`
	// OutputBytes is the size of the operation's output activation.
	OutputBytes int64 `json:"output_bytes"`
}

// Edge is a data dependency between two operations.
type Edge struct {
	// From and To are node IDs; data flows From -> To.
	From int `json:"from"`
	To   int `json:"to"`
	// Bytes is the size of the tensor transferred along the edge. It is
	// usually the producer's OutputBytes but can be smaller when the
	// consumer reads a slice of the output.
	Bytes int64 `json:"bytes"`
}

// Graph is a directed acyclic computation graph. The zero value is unusable;
// construct graphs with New.
type Graph struct {
	name  string
	nodes []Node
	edges []Edge
	// outEdges[v] and inEdges[v] hold indices into edges.
	outEdges [][]int32
	inEdges  [][]int32
	edgeSet  map[[2]int]int32 // (from,to) -> edge index, rejects duplicates
	// memo holds what Layout, CSR and Fingerprint derive; see derived.
	memo atomic.Pointer[derived]
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{name: name, edgeSet: make(map[[2]int]int32)}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// SetName renames the graph.
func (g *Graph) SetName(name string) { g.name = name }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a node and returns its ID. The caller supplies every field
// except ID, which AddNode assigns.
func (g *Graph) AddNode(n Node) int {
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
	g.outEdges = append(g.outEdges, nil)
	g.inEdges = append(g.inEdges, nil)
	return n.ID
}

// Node returns the node with the given ID. It panics if id is out of range.
func (g *Graph) Node(id int) Node { return g.nodes[id] }

// Nodes returns the node slice. The caller must not mutate it.
func (g *Graph) Nodes() []Node { return g.nodes }

// Edge returns the edge with the given index. It panics if i is out of range.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns the edge slice. The caller must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// ErrDuplicateEdge is returned by AddEdge when an edge between the same pair
// of nodes already exists.
var ErrDuplicateEdge = errors.New("graph: duplicate edge")

// AddEdge adds a data dependency carrying the given number of bytes.
// It rejects self-loops, unknown endpoints and duplicate edges. AddEdge does
// not check acyclicity; use Validate once construction is complete.
func (g *Graph) AddEdge(from, to int, bytes int64) error {
	if from < 0 || from >= len(g.nodes) || to < 0 || to >= len(g.nodes) {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node (|V|=%d)", from, to, len(g.nodes))
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %d", from)
	}
	if bytes < 0 {
		return fmt.Errorf("graph: edge (%d,%d) has negative size %d", from, to, bytes)
	}
	key := [2]int{from, to}
	if _, ok := g.edgeSet[key]; ok {
		return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, from, to)
	}
	idx := int32(len(g.edges))
	g.edges = append(g.edges, Edge{From: from, To: to, Bytes: bytes})
	g.edgeSet[key] = idx
	g.outEdges[from] = append(g.outEdges[from], idx)
	g.inEdges[to] = append(g.inEdges[to], idx)
	return nil
}

// MustAddEdge is AddEdge but panics on error. It is intended for the
// programmatic generators in internal/workload, where an edge error is a bug.
func (g *Graph) MustAddEdge(from, to int, bytes int64) {
	if err := g.AddEdge(from, to, bytes); err != nil {
		panic(err)
	}
}

// HasEdge reports whether an edge from -> to exists.
func (g *Graph) HasEdge(from, to int) bool {
	_, ok := g.edgeSet[[2]int{from, to}]
	return ok
}

// OutEdges returns the indices (into Edges) of edges leaving node v.
func (g *Graph) OutEdges(v int) []int32 { return g.outEdges[v] }

// InEdges returns the indices (into Edges) of edges entering node v.
func (g *Graph) InEdges(v int) []int32 { return g.inEdges[v] }

// Successors returns the IDs of nodes directly depending on v.
func (g *Graph) Successors(v int) []int {
	out := make([]int, len(g.outEdges[v]))
	for i, e := range g.outEdges[v] {
		out[i] = g.edges[e].To
	}
	return out
}

// Predecessors returns the IDs of nodes v directly depends on.
func (g *Graph) Predecessors(v int) []int {
	in := make([]int, len(g.inEdges[v]))
	for i, e := range g.inEdges[v] {
		in[i] = g.edges[e].From
	}
	return in
}

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v int) int { return len(g.inEdges[v]) }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v int) int { return len(g.outEdges[v]) }

// TotalFLOPs returns the sum of node compute costs.
func (g *Graph) TotalFLOPs() float64 {
	var sum float64
	for i := range g.nodes {
		sum += g.nodes[i].FLOPs
	}
	return sum
}

// TotalParamBytes returns the sum of node weight sizes.
func (g *Graph) TotalParamBytes() int64 {
	var sum int64
	for i := range g.nodes {
		sum += g.nodes[i].ParamBytes
	}
	return sum
}

// Clone returns a deep copy of the graph. The copy starts with nothing
// memoized.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		name:     g.name,
		nodes:    append([]Node(nil), g.nodes...),
		edges:    append([]Edge(nil), g.edges...),
		outEdges: make([][]int32, len(g.outEdges)),
		inEdges:  make([][]int32, len(g.inEdges)),
		edgeSet:  make(map[[2]int]int32, len(g.edgeSet)),
	}
	for i := range g.outEdges {
		c.outEdges[i] = append([]int32(nil), g.outEdges[i]...)
		c.inEdges[i] = append([]int32(nil), g.inEdges[i]...)
	}
	for k, v := range g.edgeSet {
		c.edgeSet[k] = v
	}
	return c
}

// Validate checks structural invariants: at least one node, consistent IDs,
// non-negative costs and acyclicity. Generators and deserialization call it
// before handing a graph to the partitioner.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return errors.New("graph: no nodes")
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.ID != i {
			return fmt.Errorf("graph: node %d has inconsistent ID %d", i, n.ID)
		}
		if n.FLOPs < 0 || math.IsNaN(n.FLOPs) || math.IsInf(n.FLOPs, 0) {
			return fmt.Errorf("graph: node %d has invalid FLOPs %v", i, n.FLOPs)
		}
		if n.ParamBytes < 0 {
			return fmt.Errorf("graph: node %d has negative ParamBytes", i)
		}
		if n.OutputBytes < 0 {
			return fmt.Errorf("graph: node %d has negative OutputBytes", i)
		}
	}
	_, err := g.Layout()
	return err
}

// String summarizes the graph for logs: name, node and edge counts.
func (g *Graph) String() string {
	return fmt.Sprintf("%s(|V|=%d |E|=%d)", g.name, len(g.nodes), len(g.edges))
}
