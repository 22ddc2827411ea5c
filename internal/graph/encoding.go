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
// (cmd/mcmpart -graph files, the daemon's plan endpoints): the decoded node
// and edge slices become the graph as they are, and Validate — the same one
// programmatic graphs go through — rejects every structural defect with a
// descriptive error before g is touched.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var gj graphJSON
	if err := json.Unmarshal(data, &gj); err != nil {
		return err
	}
	fresh := &Graph{name: gj.Name, nodes: gj.Nodes, edges: gj.Edges}
	if err := fresh.Validate(); err != nil {
		return err
	}
	// The memo must be replaced along with the structure: the counts it is
	// checked against cannot tell this graph from the one it overwrites.
	// fresh's record describes exactly the structure g now has, and already
	// holds the adjacency and layout Validate built.
	g.name, g.nodes, g.edges = fresh.name, fresh.nodes, fresh.edges
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
