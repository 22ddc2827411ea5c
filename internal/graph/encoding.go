package graph

import (
	"encoding/json"
	"fmt"
	"io"
)

// graphJSON is the on-disk representation of a Graph.
type graphJSON struct {
	Name  string `json:"name"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// MarshalJSON encodes the graph as {"name", "nodes", "edges"}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(graphJSON{Name: g.name, Nodes: g.nodes, Edges: g.edges})
}

// UnmarshalJSON decodes a graph previously encoded with MarshalJSON and
// validates it. It is the trust boundary for graphs arriving over the wire
// (cmd/mcmpart -graph files, the daemon's plan endpoints), so every
// structural defect is rejected with a descriptive error rather than being
// carried into the planner: dangling or negative-sized edges (via AddEdge),
// unknown operator kinds, non-finite or negative costs and cycles (via
// Validate).
func (g *Graph) UnmarshalJSON(data []byte) error {
	var gj graphJSON
	if err := json.Unmarshal(data, &gj); err != nil {
		return err
	}
	fresh := New(gj.Name)
	for i, n := range gj.Nodes {
		if n.ID != i {
			return fmt.Errorf("graph: node %d serialized with ID %d", i, n.ID)
		}
		if int(n.Op) >= NumOpKinds {
			return fmt.Errorf("graph: node %d has unknown op kind %d (valid: 0..%d)", i, n.Op, NumOpKinds-1)
		}
		fresh.AddNode(n)
	}
	for _, e := range gj.Edges {
		// AddEdge's errors already name the offending endpoints and size.
		if err := fresh.AddEdge(e.From, e.To, e.Bytes); err != nil {
			return err
		}
	}
	if err := fresh.Validate(); err != nil {
		return err
	}
	// Field-wise assignment: Graph embeds the atomic memo of its derived
	// structures, which must not be copied. It must be replaced, though:
	// the counts it is checked against cannot tell this graph from the one
	// it overwrites. fresh's record describes exactly the structure g now
	// has, and already holds the layout Validate built.
	g.name = fresh.name
	g.nodes = fresh.nodes
	g.edges = fresh.edges
	g.outEdges = fresh.outEdges
	g.inEdges = fresh.inEdges
	g.edgeSet = fresh.edgeSet
	g.memo.Store(fresh.memo.Load())
	return nil
}

// WriteDOT writes the graph in Graphviz DOT format. If part is non-nil it
// must have one entry per node; nodes are then clustered and colored by chip
// assignment, which makes partitions easy to eyeball.
func (g *Graph) WriteDOT(w io.Writer, part []int) error {
	if part != nil && len(part) != len(g.nodes) {
		return fmt.Errorf("graph: partition has %d entries for %d nodes", len(part), len(g.nodes))
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box, style=filled];\n", g.name); err != nil {
		return err
	}
	palette := []string{
		"#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
		"#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		color := "#dddddd"
		label := fmt.Sprintf("%s\\n%s", n.Name, n.Op)
		if part != nil {
			color = palette[part[i]%len(palette)]
			label = fmt.Sprintf("%s\\n%s\\nchip %d", n.Name, n.Op, part[i])
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=%q, fillcolor=%q];\n", i, label, color); err != nil {
			return err
		}
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=%q];\n", e.From, e.To, byteLabel(e.Bytes)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func byteLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
