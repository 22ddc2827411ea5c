package graph

// CSR is a compressed-sparse-row view of the graph's adjacency: one flat
// edge-index array per direction plus offset tables, built once and shared.
// The per-node slice-of-slices adjacency (outEdges/inEdges) is fine for
// construction and for the sub-1k-node corpus, but at 100k nodes it costs
// two pointer-chasing loads per neighbor visit and fragments the heap with
// |V| small slices; the analytic fast path walks every edge many times per
// plan, so it reads this packed form instead.
//
// A CSR is immutable. Out(v) and In(v) return subslices of the shared flat
// arrays; callers must not mutate them.
type CSR struct {
	n               int
	outOff, inOff   []int32
	outEdge, inEdge []int32
}

// NumNodes returns |V| of the graph the view was built from.
func (c *CSR) NumNodes() int { return c.n }

// Out returns the indices (into the graph's Edges) of edges leaving v,
// in insertion order.
func (c *CSR) Out(v int) []int32 { return c.outEdge[c.outOff[v]:c.outOff[v+1]] }

// In returns the indices (into the graph's Edges) of edges entering v,
// in insertion order.
func (c *CSR) In(v int) []int32 { return c.inEdge[c.inOff[v]:c.inOff[v+1]] }

// CSR returns the packed adjacency view of the graph, building it on first
// use and memoizing it until the graph changes (see derived). Like
// Fingerprint, it is safe for concurrent use on a graph that is no longer
// being mutated.
func (g *Graph) CSR() *CSR {
	d := g.derived()
	d.csrOnce.Do(func() { d.csr = g.buildCSR() })
	return d.csr
}

func (g *Graph) buildCSR() *CSR {
	n := len(g.nodes)
	m := len(g.edges)
	c := &CSR{
		n:       n,
		outOff:  make([]int32, n+1),
		inOff:   make([]int32, n+1),
		outEdge: make([]int32, m),
		inEdge:  make([]int32, m),
	}
	for v := 0; v < n; v++ {
		c.outOff[v+1] = c.outOff[v] + int32(len(g.outEdges[v]))
		c.inOff[v+1] = c.inOff[v] + int32(len(g.inEdges[v]))
	}
	for v := 0; v < n; v++ {
		copy(c.outEdge[c.outOff[v]:], g.outEdges[v])
		copy(c.inEdge[c.inOff[v]:], g.inEdges[v])
	}
	return c
}
