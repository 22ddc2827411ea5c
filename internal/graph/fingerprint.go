package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

// Fingerprint returns a SHA-256 content hash of the graph's structure and
// costs over a topologically canonicalized encoding. Two graphs that differ
// only in node-insertion order (and therefore in node IDs) fingerprint
// identically; any change to an operator kind, a cost field (FLOPs,
// ParamBytes, OutputBytes), an edge, or an edge's byte count changes the
// fingerprint. Node names and the graph name are presentation metadata and
// do not participate.
//
// The fingerprint is the graph half of the plan-cache key (see the root
// package's Service): a cache that keyed on raw node IDs would treat the
// same model built in a different traversal order as a different model and
// re-plan it from scratch.
//
// Canonicalization: every node gets a structural signature combining a hash
// of its full ancestor structure (computed forward in topological order) and
// of its full descendant structure (computed backward), each folding in the
// node's operator and cost fields plus the byte sizes of the incident edges.
// Signature ranks are then refined against neighbor ranks to a fixpoint;
// whenever a group of nodes remains tied, the group is individualized and
// refinement re-run, so a tie-break choice propagates consistently to the
// tied nodes' neighborhoods (two parallel identical chains stay aligned as
// chains instead of being interleaved by insertion order). Nodes still tied
// after refinement are indistinguishable by their entire ancestor and
// descendant structure, and the individualization order among them cannot
// change the encoding for any graph whose ties are true automorphisms —
// which covers the replicated-branch patterns real models exhibit.
func (g *Graph) Fingerprint() string { return g.fingerprinted().fingerprint }

// CanonicalPositions returns, for every node ID, the node's position in the
// canonical order Fingerprint hashes. Two graphs with equal fingerprints
// are isomorphic through these positions: node v of one and node w of the
// other correspond when their positions are equal, so per-node data (a
// partition) stored by canonical position fits every graph with that
// fingerprint. The slice is memoized with the fingerprint and shared — do
// not modify it. It is nil when the graph has no canonical order (no
// nodes, or a cycle), which callers treat as the identity.
func CanonicalPositions(g *Graph) []int { return g.fingerprinted().canonical }

// fingerprinted returns the derived record with its canonicalization
// filled in.
func (g *Graph) fingerprinted() *derived {
	d := g.derived()
	d.fpOnce.Do(func() { d.fingerprint, d.canonical = g.fingerprint() })
	return d
}

func (g *Graph) fingerprint() (string, []int) {
	n := len(g.nodes)
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	if n == 0 {
		writeU64(0)
		return hex.EncodeToString(h.Sum(nil)), nil
	}

	lay, err := g.Layout()
	if err != nil {
		// Cyclic graphs never reach planning (Validate rejects them), but
		// Fingerprint must still be total and content-determined: hash the
		// raw ID-ordered encoding instead.
		return g.rawFingerprint(), nil
	}

	attr := make([][]byte, n)
	for v := 0; v < n; v++ {
		attr[v] = attrDigest(&g.nodes[v])
	}
	up := neighborDigests(g, lay.Order, attr, false)
	down := neighborDigests(g, reversed(lay.Order), attr, true)

	sig := make([][]byte, n)
	for v := 0; v < n; v++ {
		d := sha256.Sum256(append(append([]byte(nil), up[v]...), down[v]...))
		sig[v] = d[:]
	}

	pos := canonicalPositions(g, sig)
	perm := make([]int, n)
	for v, p := range pos {
		perm[p] = v
	}

	writeU64(uint64(n))
	for _, v := range perm {
		h.Write(attr[v])
	}
	writeU64(uint64(len(g.edges)))
	edges := make([][3]uint64, len(g.edges))
	for i, e := range g.edges {
		edges[i] = [3]uint64{uint64(pos[e.From]), uint64(pos[e.To]), uint64(e.Bytes)}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		if edges[a][1] != edges[b][1] {
			return edges[a][1] < edges[b][1]
		}
		return edges[a][2] < edges[b][2]
	})
	for _, e := range edges {
		writeU64(e[0])
		writeU64(e[1])
		writeU64(e[2])
	}
	return hex.EncodeToString(h.Sum(nil)), pos
}

// canonicalPositions turns structural signatures into a total canonical
// order by refinement with individualization. Ranks start as the dense rank
// of each node's signature; each refinement round re-ranks nodes by
// (rank, hash of the rank-labeled in/out neighborhoods) until no round
// splits further. If ties remain, every node of the lowest tied rank is
// individualized (given its own rank, in descending-ID order) and refinement
// re-runs, so the choice propagates structurally to everything that
// distinguishes itself relative to the peeled class. Each peel strictly
// increases the number of distinct ranks by the class size, so the loop
// terminates in at most n rounds and runs one round per surviving tie class
// rather than one per tied node — keeping replicated-branch graphs (the
// adversarial case for refinement) near-linear instead of quadratic.
func canonicalPositions(g *Graph, sig [][]byte) []int {
	n := len(g.nodes)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		if c := bytes.Compare(sig[perm[a]], sig[perm[b]]); c != 0 {
			return c < 0
		}
		return perm[a] < perm[b] // stable total order; ties resolved below
	})
	rank := make([]int, n)
	r := 0
	for i, v := range perm {
		if i > 0 && !bytes.Equal(sig[v], sig[perm[i-1]]) {
			r++
		}
		rank[v] = r
	}

	distinct := r + 1
	for distinct < n {
		for {
			refined, d := refineRanks(g, rank)
			if d == distinct {
				break
			}
			rank, distinct = refined, d
		}
		if distinct == n {
			break
		}
		// Individualize the whole lowest tied class at once. Members of a
		// tie class at a refinement fixpoint are indistinguishable by full
		// ancestor/descendant structure, so for automorphic ties any
		// individualization order yields the same canonical encoding — which
		// is why the class can be peeled in one step instead of one member
		// per outer round (the former Θ(k) rounds for a k-member class made
		// graphs with many replicated branches quadratic; see
		// BenchmarkFingerprintAdversarial). Members get distinct consecutive
		// ranks in descending node-ID order, exactly the order the
		// one-member-per-round peeling used to converge to, so fingerprints
		// are unchanged.
		lowest := -1
		counts := make([]int, distinct)
		for _, rk := range rank {
			counts[rk]++
		}
		for rk := 0; rk < distinct; rk++ {
			if counts[rk] > 1 {
				lowest = rk
				break
			}
		}
		m := counts[lowest]
		for v := 0; v < n; v++ {
			rank[v] *= m // keep room for the individualized slots
		}
		slot := m - 1 // descending IDs get ascending slots
		for v := 0; v < n; v++ {
			if rank[v] == lowest*m {
				rank[v] += slot
				slot--
			}
		}
		rank, distinct = densify(rank)
	}

	pos := make([]int, n)
	for v := 0; v < n; v++ {
		pos[v] = rank[v]
	}
	return pos
}

// refineRanks performs one refinement round: nodes are re-ranked by their
// current rank plus a hash of the rank-labeled incident edges on both
// sides. The previous rank leads the sort key, so refinement only ever
// splits classes. Returns the new ranks and the distinct-rank count.
//
// The per-round keys use cheap 64-bit mixing rather than a cryptographic
// hash: a key collision can only merge two distinguishable nodes into one
// tie class, which at worst perturbs the canonical *order* and costs a
// spurious cache miss (~2^-64 per node pair) — never a false cache hit,
// because the final fingerprint hashes the actual relabeled attributes and
// edges with SHA-256.
func refineRanks(g *Graph, rank []int) ([]int, int) {
	n := len(g.nodes)
	keys := make([]uint64, n)
	var scratch []uint64
	for v := 0; v < n; v++ {
		scratch = scratch[:0]
		for _, ei := range g.inEdges[v] {
			e := g.edges[ei]
			scratch = append(scratch, mix3(uint64(rank[e.From]), uint64(e.Bytes), 'i'))
		}
		for _, ei := range g.outEdges[v] {
			e := g.edges[ei]
			scratch = append(scratch, mix3(uint64(rank[e.To]), uint64(e.Bytes), 'o'))
		}
		sort.Slice(scratch, func(a, b int) bool { return scratch[a] < scratch[b] })
		k := mix64(uint64(rank[v]) ^ 0x6d63b0a5f1e2d3c4)
		for _, item := range scratch {
			k = mix64(k ^ item)
		}
		keys[v] = k
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		if rank[perm[a]] != rank[perm[b]] {
			return rank[perm[a]] < rank[perm[b]]
		}
		if keys[perm[a]] != keys[perm[b]] {
			return keys[perm[a]] < keys[perm[b]]
		}
		return perm[a] < perm[b]
	})
	out := make([]int, n)
	r := 0
	for i, v := range perm {
		if i > 0 {
			prev := perm[i-1]
			if rank[v] != rank[prev] || keys[v] != keys[prev] {
				r++
			}
		}
		out[v] = r
	}
	return out, r + 1
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// mix3 folds three values into one 64-bit key.
func mix3(a, b, c uint64) uint64 {
	return mix64(mix64(a^0x9e3779b97f4a7c15) ^ mix64(b^0xd1b54a32d192ed03) ^ mix64(c^0x8cb92ba72f3d8dd7))
}

// densify renumbers arbitrary integer ranks to dense 0..k-1 preserving
// order, returning the dense ranks and k.
func densify(rank []int) ([]int, int) {
	seen := make(map[int]struct{}, len(rank))
	for _, r := range rank {
		seen[r] = struct{}{}
	}
	values := make([]int, 0, len(seen))
	for r := range seen {
		values = append(values, r)
	}
	sort.Ints(values)
	remap := make(map[int]int, len(values))
	for i, r := range values {
		remap[r] = i
	}
	out := make([]int, len(rank))
	for i, r := range rank {
		out[i] = remap[r]
	}
	return out, len(values)
}

// attrDigest hashes the ID- and name-independent fields of one node.
func attrDigest(nd *Node) []byte {
	var b [32]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(nd.Op))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(nd.FLOPs))
	binary.LittleEndian.PutUint64(b[16:], uint64(nd.ParamBytes))
	binary.LittleEndian.PutUint64(b[24:], uint64(nd.OutputBytes))
	d := sha256.Sum256(b[:])
	return d[:]
}

// neighborDigests folds, for every node in the given dependency order, the
// node's attribute digest with the sorted multiset of (edge bytes, digest of
// the already-processed neighbor). With the forward topological order and
// predecessor edges it digests the full ancestor structure; with the
// reversed order and successor edges, the full descendant structure.
func neighborDigests(g *Graph, order []int, attr [][]byte, successors bool) [][]byte {
	out := make([][]byte, len(g.nodes))
	var scratch [][]byte
	for _, v := range order {
		var incident []int32
		if successors {
			incident = g.outEdges[v]
		} else {
			incident = g.inEdges[v]
		}
		scratch = scratch[:0]
		for _, ei := range incident {
			e := g.edges[ei]
			nb := e.From
			if successors {
				nb = e.To
			}
			item := make([]byte, 8+sha256.Size)
			binary.LittleEndian.PutUint64(item, uint64(e.Bytes))
			copy(item[8:], out[nb])
			scratch = append(scratch, item)
		}
		sort.Slice(scratch, func(a, b int) bool { return bytes.Compare(scratch[a], scratch[b]) < 0 })
		h := sha256.New()
		h.Write(attr[v])
		for _, item := range scratch {
			h.Write(item)
		}
		out[v] = h.Sum(nil)
	}
	return out
}

func reversed(order []int) []int {
	out := make([]int, len(order))
	for i, v := range order {
		out[len(order)-1-i] = v
	}
	return out
}

// rawFingerprint hashes nodes and edges in ID order, without
// canonicalization. It is the fallback for graphs Layout rejects.
func (g *Graph) rawFingerprint() string {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(len(g.nodes)))
	for i := range g.nodes {
		h.Write(attrDigest(&g.nodes[i]))
	}
	writeU64(uint64(len(g.edges)))
	for _, e := range g.edges {
		writeU64(uint64(e.From))
		writeU64(uint64(e.To))
		writeU64(uint64(e.Bytes))
	}
	return hex.EncodeToString(h.Sum(nil))
}
