package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

// The functions below are the canonicalizer the worklist refinement in
// fingerprint.go replaced, kept verbatim from the commit before it (7c127c7;
// names prefixed with ref, the fingerprint method turned into a function,
// g.inEdges[v]/g.outEdges[v] read as g.InEdges(v)/g.OutEdges(v) since those
// fields were deleted, nothing else) as the reference the new code must equal — fingerprint and
// canonical position, graph for graph:
//
//	refFingerprint         (*Graph).fingerprint    internal/graph/fingerprint.go:58-122
//	refCanonicalPositions  canonicalPositions      internal/graph/fingerprint.go:124-210
//	refRefineRanks         refineRanks             internal/graph/fingerprint.go:212-269
//	refDensify             densify                 internal/graph/fingerprint.go:286-307
//	refAttrDigest          attrDigest              internal/graph/fingerprint.go:309-318
//	refNeighborDigests     neighborDigests         internal/graph/fingerprint.go:320-356
//	refReversed            reversed                internal/graph/fingerprint.go:358-364
//	refRawFingerprint      (*Graph).rawFingerprint internal/graph/fingerprint.go:366-386
//
// mix64 and mix3 are shared with fingerprint.go: their constants are part of
// the key and did not change.

func refFingerprint(g *Graph) (string, []int) {
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
		return refRawFingerprint(g), nil
	}

	attr := make([][]byte, n)
	for v := 0; v < n; v++ {
		attr[v] = refAttrDigest(&g.nodes[v])
	}
	up := refNeighborDigests(g, lay.Order, attr, false)
	down := refNeighborDigests(g, refReversed(lay.Order), attr, true)

	sig := make([][]byte, n)
	for v := 0; v < n; v++ {
		d := sha256.Sum256(append(append([]byte(nil), up[v]...), down[v]...))
		sig[v] = d[:]
	}

	pos := refCanonicalPositions(g, sig)
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

// refCanonicalPositions turns structural signatures into a total canonical
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
func refCanonicalPositions(g *Graph, sig [][]byte) []int {
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
			refined, d := refRefineRanks(g, rank)
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
		rank, distinct = refDensify(rank)
	}

	pos := make([]int, n)
	for v := 0; v < n; v++ {
		pos[v] = rank[v]
	}
	return pos
}

// refRefineRanks performs one refinement round: nodes are re-ranked by their
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
func refRefineRanks(g *Graph, rank []int) ([]int, int) {
	n := len(g.nodes)
	keys := make([]uint64, n)
	var scratch []uint64
	for v := 0; v < n; v++ {
		scratch = scratch[:0]
		for _, ei := range g.InEdges(v) {
			e := g.edges[ei]
			scratch = append(scratch, mix3(uint64(rank[e.From]), uint64(e.Bytes), 'i'))
		}
		for _, ei := range g.OutEdges(v) {
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

// refDensify renumbers arbitrary integer ranks to dense 0..k-1 preserving
// order, returning the dense ranks and k.
func refDensify(rank []int) ([]int, int) {
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

// refAttrDigest hashes the ID- and name-independent fields of one node.
func refAttrDigest(nd *Node) []byte {
	var b [32]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(nd.Op))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(nd.FLOPs))
	binary.LittleEndian.PutUint64(b[16:], uint64(nd.ParamBytes))
	binary.LittleEndian.PutUint64(b[24:], uint64(nd.OutputBytes))
	d := sha256.Sum256(b[:])
	return d[:]
}

// refNeighborDigests folds, for every node in the given dependency order, the
// node's attribute digest with the sorted multiset of (edge bytes, digest of
// the already-processed neighbor). With the forward topological order and
// predecessor edges it digests the full ancestor structure; with the
// refReversed order and successor edges, the full descendant structure.
func refNeighborDigests(g *Graph, order []int, attr [][]byte, successors bool) [][]byte {
	out := make([][]byte, len(g.nodes))
	var scratch [][]byte
	for _, v := range order {
		var incident []int32
		if successors {
			incident = g.OutEdges(v)
		} else {
			incident = g.InEdges(v)
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

func refReversed(order []int) []int {
	out := make([]int, len(order))
	for i, v := range order {
		out[len(order)-1-i] = v
	}
	return out
}

// refRawFingerprint hashes nodes and edges in ID order, without
// canonicalization. It is the fallback for graphs Layout rejects.
func refRawFingerprint(g *Graph) string {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(len(g.nodes)))
	for i := range g.nodes {
		h.Write(refAttrDigest(&g.nodes[i]))
	}
	writeU64(uint64(len(g.edges)))
	for _, e := range g.edges {
		writeU64(uint64(e.From))
		writeU64(uint64(e.To))
		writeU64(uint64(e.Bytes))
	}
	return hex.EncodeToString(h.Sum(nil))
}
