package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"mcmpart/internal/jsonscan"
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
// (cmd/mcmpart -graph files, the daemon's plan endpoints): one pass of
// DecodeJSON over data, which is not retained, ending in Validate — the same
// one programmatic graphs go through — rejects every structural defect with
// a descriptive error before g is touched.
func (g *Graph) UnmarshalJSON(data []byte) error {
	sc := jsonscan.New(data)
	fresh, err := DecodeJSON(sc)
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return err
	}
	if fresh == nil { // null
		return new(Graph).Validate()
	}
	// The memo must be replaced along with the structure: the counts it is
	// checked against cannot tell this graph from the one it overwrites.
	// fresh's record describes exactly the structure g now has, and already
	// holds the adjacency and layout Validate built.
	g.name, g.nodes, g.edges = fresh.name, fresh.nodes, fresh.edges
	g.memo.Store(fresh.memo.Load())
	return nil
}

// The member names of the wire form, indexed by the constants beside them,
// in the order MarshalJSON writes them: each member is decoded expecting
// the one after the member before it (jsonscan.MemberOf).
var (
	graphFields = [...]string{"name", "nodes", "edges"}
	nodeFields  = [...]string{"id", "name", "op", "flops", "param_bytes", "output_bytes"}
	edgeFields  = [...]string{"from", "to", "bytes"}
)

const (
	graphName = iota
	graphNodes
	graphEdges
)

const (
	nodeID = iota
	nodeName
	nodeOp
	nodeFLOPs
	nodeParamBytes
	nodeOutputBytes
)

const (
	edgeFrom = iota
	edgeTo
	edgeBytes
)

// decoder is one graph being read off a scanner: the graph's half of the
// wire grammar (DESIGN.md §8; the scanner holds the JSON half). Values go
// straight into the slices the graph adopts and nothing of the document is
// retained. Accept/reject and the decoded graph are those of the
// encoding/json decode this replaced (encoding_ref_test.go), except that a
// second nodes or edges array in one graph is an error rather than an
// element-wise merge.
type decoder struct {
	*jsonscan.Scanner
	g *Graph

	// Node names are collected in arena and become one string, so a 10k-node
	// graph is not 10k allocations. Node i's name ends at ends[i] and starts
	// where node i-1's ends.
	arena []byte
	ends  []int

	sawNodes, sawEdges bool // an array of each has been opened
}

// DecodeJSON decodes and validates the graph value sc stands at, where it
// stands — the document may be the graph or a request with the graph inside
// it — and leaves sc after it. A null is a nil graph.
func DecodeJSON(sc *jsonscan.Scanner) (*Graph, error) {
	if isNull, err := sc.Null(); isNull || err != nil {
		return nil, err
	}
	d := decoder{Scanner: sc, g: new(Graph)}
	if err := d.graph(); err != nil {
		return nil, err
	}
	return d.g, nil
}

// graph reads the graph object into d.g and validates it.
func (d *decoder) graph() error {
	if err := d.Open('{', "a graph object"); err != nil {
		return err
	}
	for first, next := true, 0; ; first = false {
		field, _, ok, err := d.MemberOf(first, graphFields[:], next)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		next = field + 1
		switch field {
		case graphName:
			var s []byte
			if s, ok, err = d.Text(); ok {
				d.g.name = string(s)
			}
		case graphNodes:
			err = d.nodes()
		case graphEdges:
			err = d.edges()
		default: // unknown members are ignored, as encoding/json ignored them
			err = d.Skip()
		}
		if err != nil {
			return err
		}
	}
	names, start := string(d.arena), 0
	for i := range d.g.nodes {
		d.g.nodes[i].Name = names[start:d.ends[i]]
		start = d.ends[i]
	}
	return d.g.Validate()
}

// array opens the nodes or edges array, or consumes the null that empties
// the member. encoding/json decoded a second array of the same member over
// the first, element by element, so that a node could be assembled from two
// places; that is an error here, and seen remembers the first.
func (d *decoder) array(seen *bool, what string) (isNull bool, err error) {
	if isNull, err := d.Null(); isNull || err != nil {
		return true, err
	}
	if *seen {
		return false, d.Fail("a second " + what + " array in one graph")
	}
	*seen = true
	return false, d.Open('[', "an array of "+what)
}

// room returns s with room for need more elements. A full slice grows to the
// length the rest of the document suggests — as many elements per byte in
// the bytes left as in the bytes the array has taken so far — held between
// 1.25 and 8 times what it must hold now. A 10k-node array is five
// allocations of about twice its size in all, where append's thirty came to
// five times; a document that stops resembling its beginning costs what
// append would have.
func room[T any](s []T, need, taken, left int) []T {
	n := len(s) + need
	if n <= cap(s) {
		return s
	}
	guess := 8 * n
	if taken > 0 {
		guess = int(float64(n) * (1 + float64(left)/float64(taken)))
	}
	return slices.Grow(s, min(max(guess, n+n/4), 8*n)-len(s))
}

func (d *decoder) nodes() error {
	g := d.g
	g.nodes, d.arena, d.ends = nil, d.arena[:0], d.ends[:0]
	if isNull, err := d.array(&d.sawNodes, "nodes"); isNull || err != nil {
		return err
	}
	g.nodes = []Node{} // an empty array is not null: it encodes back as []
	start := d.Offset()
	for first := true; ; first = false {
		if ok, err := d.Element(first); !ok || err != nil {
			return err
		}
		g.nodes = append(room(g.nodes, 1, d.Offset()-start, d.Left()), Node{})
		d.ends = slices.Grow(d.ends, cap(g.nodes)-len(d.ends))
		if err := d.node(&g.nodes[len(g.nodes)-1], start); err != nil {
			return err
		}
		d.ends = append(d.ends, len(d.arena))
	}
}

// node decodes one element of nodes, which starts at arrayStart, into n, its
// name onto the arena. A null element is a zero node.
func (d *decoder) node(n *Node, arrayStart int) error {
	if isNull, err := d.Null(); isNull || err != nil {
		return err
	}
	if err := d.Open('{', "a node object"); err != nil {
		return err
	}
	nameStart := len(d.arena)
	for first, next := true, 0; ; first = false {
		field, _, ok, err := d.MemberOf(first, nodeFields[:], next)
		if !ok || err != nil {
			return err
		}
		next = field + 1
		// A member that is null is not set: it keeps what it had.
		switch field {
		case nodeID:
			err = d.Int(&n.ID)
		case nodeName:
			var s []byte
			if s, ok, err = d.Text(); ok {
				d.arena = append(room(d.arena[:nameStart], len(s), d.Offset()-arrayStart, d.Left()), s...)
			}
		case nodeOp:
			// Which of 0..255 is a known operator is Validate's to say.
			err = d.Uint8((*uint8)(&n.Op))
		case nodeFLOPs:
			err = d.Float64(&n.FLOPs)
		case nodeParamBytes:
			err = d.Int64(&n.ParamBytes)
		case nodeOutputBytes:
			err = d.Int64(&n.OutputBytes)
		default:
			err = d.Skip()
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) edges() error {
	g := d.g
	g.edges = nil
	if isNull, err := d.array(&d.sawEdges, "edges"); isNull || err != nil {
		return err
	}
	g.edges = []Edge{}
	start := d.Offset()
	for first := true; ; first = false {
		if ok, err := d.Element(first); !ok || err != nil {
			return err
		}
		g.edges = append(room(g.edges, 1, d.Offset()-start, d.Left()), Edge{})
		if err := d.edge(&g.edges[len(g.edges)-1]); err != nil {
			return err
		}
	}
}

func (d *decoder) edge(e *Edge) error {
	if isNull, err := d.Null(); isNull || err != nil {
		return err
	}
	if err := d.Open('{', "an edge object"); err != nil {
		return err
	}
	for first, next := true, 0; ; first = false {
		field, _, ok, err := d.MemberOf(first, edgeFields[:], next)
		if !ok || err != nil {
			return err
		}
		next = field + 1
		switch field {
		case edgeFrom:
			err = d.Int(&e.From)
		case edgeTo:
			err = d.Int(&e.To)
		case edgeBytes:
			err = d.Int64(&e.Bytes)
		default:
			err = d.Skip()
		}
		if err != nil {
			return err
		}
	}
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
