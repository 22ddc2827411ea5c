package graph

import "fmt"

// adjacency is the graph's only adjacency: per direction, one flat array of
// edge indices grouped by node and the offsets of the groups. It is derived
// from the edge list (see derived) rather than maintained by AddEdge, so a
// graph under construction is two appends per element, a decoded graph is
// its decoded slices, and a 100k-node graph is four arrays, not 200k.
// Within a node's group the edges keep their insertion order; the
// fingerprint, the layout and the solver's propagation order all read it.
type adjacency struct {
	outOff, inOff   []int32 // n+1 entries: node v's group is [off[v], off[v+1])
	outEdge, inEdge []int32
	err             error // what the build found wrong with the edge list; Validate reports it
}

func (a *adjacency) out(v int) []int32 { return a.outEdge[a.outOff[v]:a.outOff[v+1]] }
func (a *adjacency) in(v int) []int32  { return a.inEdge[a.inOff[v]:a.inOff[v+1]] }

// adjacency returns the packed adjacency of the graph's current state.
func (g *Graph) adjacency() *adjacency { return &g.derived().adj }

// checkEdge is the per-edge half of validation, shared by AddEdge and by the
// adjacency build that vets decoded edge lists.
func checkEdge(n int, e Edge) error {
	if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node (|V|=%d)", e.From, e.To, n)
	}
	if e.From == e.To {
		return fmt.Errorf("graph: self-loop on node %d", e.From)
	}
	if e.Bytes < 0 {
		return fmt.Errorf("graph: edge (%d,%d) has negative size %d", e.From, e.To, e.Bytes)
	}
	return nil
}

// buildAdjacency groups the edge indices by endpoint with a stable counting
// sort per direction. An edge that fails checkEdge leaves only the error
// (only UnmarshalJSON can meet one, and it discards the graph); a duplicate
// (from,to) pair leaves the multigraph's adjacency and ErrDuplicateEdge.
func buildAdjacency(n int, edges []Edge) adjacency {
	for _, e := range edges {
		if err := checkEdge(n, e); err != nil {
			return adjacency{err: err}
		}
	}
	// One backing array; the offset tables carry a leading spare slot each
	// so that counting, prefix-summing and filling need no cursor array.
	m := len(edges)
	buf := make([]int32, 2*(n+2)+2*m)
	outOff, buf := buf[:n+2], buf[n+2:]
	inOff, buf := buf[:n+2], buf[n+2:]
	outEdge, inEdge := buf[:m], buf[m:]
	for _, e := range edges {
		outOff[e.From+2]++
		inOff[e.To+2]++
	}
	for v := 0; v < n; v++ {
		outOff[v+2] += outOff[v+1]
		inOff[v+2] += inOff[v+1]
	}
	// off[v+1] is where v's group starts, and ends up where it ends — which
	// is where v+1's starts.
	for i, e := range edges {
		outEdge[outOff[e.From+1]] = int32(i)
		outOff[e.From+1]++
		inEdge[inOff[e.To+1]] = int32(i)
		inOff[e.To+1]++
	}
	a := adjacency{outOff: outOff[:n+1], inOff: inOff[:n+1], outEdge: outEdge, inEdge: inEdge}

	// seen[w] == v+1 once an edge v -> w has gone by.
	seen := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, ei := range a.out(v) {
			w := edges[ei].To
			if seen[w] == int32(v)+1 {
				a.err = fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, v, w)
				return a
			}
			seen[w] = int32(v) + 1
		}
	}
	return a
}
