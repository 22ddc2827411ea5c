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
	"slices"
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

// Graph is a directed acyclic computation graph: its nodes and its edges.
// Everything else — adjacency, layout, fingerprint — is derived from those
// two slices on first use (see derived).
type Graph struct {
	name  string
	nodes []Node
	edges []Edge
	memo  atomic.Pointer[derived]
}

// New returns an empty graph with the given name.
func New(name string) *Graph { return &Graph{name: name} }

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a node and returns its ID. The caller supplies every field
// except ID, which AddNode assigns.
func (g *Graph) AddNode(n Node) int {
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
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

// ErrDuplicateEdge is returned by Validate when two edges join the same
// ordered pair of nodes.
var ErrDuplicateEdge = errors.New("graph: duplicate edge")

// AddEdge appends a data dependency carrying the given number of bytes. It
// rejects unknown endpoints, self-loops and negative sizes. Properties of
// the edge set as a whole — no duplicate (from,to) pair, no cycle — are
// checked by Validate once construction is complete.
func (g *Graph) AddEdge(from, to int, bytes int64) error {
	e := Edge{From: from, To: to, Bytes: bytes}
	if err := checkEdge(len(g.nodes), e); err != nil {
		return err
	}
	g.edges = append(g.edges, e)
	return nil
}

// MustAddEdge is AddEdge but panics on error. It is intended for the
// programmatic generators in internal/workload, where an edge error is a bug
// (a duplicate pair, like a cycle, surfaces from the Validate they end with).
func (g *Graph) MustAddEdge(from, to int, bytes int64) {
	if err := g.AddEdge(from, to, bytes); err != nil {
		panic(err)
	}
}

// OutEdges returns the indices (into Edges) of edges leaving node v, in
// insertion order. The slice is shared; callers must not modify it. The
// adjacency behind this and the accessors below is derived on the first read
// after the graph last grew — O(V+E) once — so build first, then read.
func (g *Graph) OutEdges(v int) []int32 { return g.adjacency().out(v) }

// InEdges returns the indices (into Edges) of edges entering node v, in
// insertion order. The slice is shared; callers must not modify it.
func (g *Graph) InEdges(v int) []int32 { return g.adjacency().in(v) }

// Successors returns the IDs of nodes directly depending on v.
func (g *Graph) Successors(v int) []int {
	edges := g.OutEdges(v)
	out := make([]int, len(edges))
	for i, e := range edges {
		out[i] = g.edges[e].To
	}
	return out
}

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v int) int { return len(g.InEdges(v)) }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v int) int { return len(g.OutEdges(v)) }

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
	return &Graph{name: g.name, nodes: slices.Clone(g.nodes), edges: slices.Clone(g.edges)}
}

// CloneDerived is Clone whose copy shares g's derived record — adjacency,
// layout, fingerprint and canonical positions — instead of deriving them
// again: the copy holds the same nodes and edges, and whichever graph fills
// a part of the record first fills it for both. Either graph that grows
// afterwards starts a record of its own.
func (g *Graph) CloneDerived() *Graph {
	c := g.Clone()
	c.memo.Store(g.derived())
	return c
}

// Validate is the one validator, for graphs built through AddNode/AddEdge
// and for graphs decoded from the wire alike: at least one node, dense IDs,
// known operator kinds, finite non-negative costs, well-formed edges, no
// duplicate (from,to) pair (ErrDuplicateEdge), no cycle (ErrCycle).
// Generators end with it, UnmarshalJSON and the planner begin with it. The
// edge checks are the adjacency and layout builds, memoized with the result.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return errors.New("graph: no nodes")
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.ID != i {
			return fmt.Errorf("graph: node %d serialized with ID %d", i, n.ID)
		}
		if int(n.Op) >= NumOpKinds {
			return fmt.Errorf("graph: node %d (%q) has unknown op kind %d (valid: 0..%d)", i, n.Name, n.Op, NumOpKinds-1)
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
	if err := g.adjacency().err; err != nil {
		return err
	}
	_, err := g.Layout()
	return err
}

// String summarizes the graph for logs: name, node and edge counts.
func (g *Graph) String() string {
	return fmt.Sprintf("%s(|V|=%d |E|=%d)", g.name, len(g.nodes), len(g.edges))
}
