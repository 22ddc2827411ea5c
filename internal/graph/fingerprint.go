package graph

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
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
	if n == 0 {
		return hexSHA256(make([]byte, 8)), nil
	}
	lay, err := g.Layout()
	if err != nil {
		// Cyclic graphs never reach planning (Validate rejects them), but
		// Fingerprint must still be total and content-determined: hash the
		// raw ID-ordered encoding instead.
		return g.rawFingerprint(), nil
	}

	attr := attrDigests(g)
	pos, _ := canonicalPositions(g, signatures(g, lay.Order, attr))
	perm := make([]int32, n)
	for v, p := range pos {
		perm[p] = int32(v)
	}

	// Edges are hashed sorted by (from, to, bytes) position triple: walking
	// the nodes in canonical order and sorting each one's own out-list
	// emits exactly that sequence.
	le := binary.LittleEndian
	buf := make([]byte, 0, 16+sha256.Size*n+24*len(g.edges))
	buf = le.AppendUint64(buf, uint64(n))
	for _, v := range perm {
		buf = append(buf, attr[v][:]...)
	}
	buf = le.AppendUint64(buf, uint64(len(g.edges)))
	var out [][2]uint64 // (position of To, bytes), reused
	for p, v := range perm {
		out = out[:0]
		for _, ei := range g.OutEdges(int(v)) {
			e := &g.edges[ei]
			out = append(out, [2]uint64{uint64(pos[e.To]), uint64(e.Bytes)})
		}
		slices.SortFunc(out, func(a, b [2]uint64) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		for _, o := range out {
			buf = le.AppendUint64(buf, uint64(p))
			buf = le.AppendUint64(buf, o[0])
			buf = le.AppendUint64(buf, o[1])
		}
	}
	return hexSHA256(buf), pos
}

func hexSHA256(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// attrDigests hashes the ID- and name-independent fields of every node.
func attrDigests(g *Graph) [][sha256.Size]byte {
	attr := make([][sha256.Size]byte, len(g.nodes))
	for v := range g.nodes {
		nd := &g.nodes[v]
		var b [32]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(nd.Op))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(nd.FLOPs))
		binary.LittleEndian.PutUint64(b[16:], uint64(nd.ParamBytes))
		binary.LittleEndian.PutUint64(b[24:], uint64(nd.OutputBytes))
		attr[v] = sha256.Sum256(b[:])
	}
	return attr
}

// signatures returns every node's structural signature: the hash of its
// ancestor digest (folded forward along the topological order) and its
// descendant digest (folded backward along it).
func signatures(g *Graph, order []int, attr [][sha256.Size]byte) [][sha256.Size]byte {
	n := len(order)
	up := make([][sha256.Size]byte, n)
	down := make([][sha256.Size]byte, n)
	var s digestScratch
	for _, v := range order {
		up[v] = s.neighborDigest(g, v, attr, up, false)
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		down[v] = s.neighborDigest(g, v, attr, down, true)
	}
	sig := up // up[v] is last read when sig[v] is written
	for v := range sig {
		s.buf = append(append(s.buf[:0], up[v][:]...), down[v][:]...)
		sig[v] = sha256.Sum256(s.buf)
	}
	return sig
}

// digestScratch is the storage neighborDigest reuses from node to node.
type digestScratch struct {
	items [][8 + sha256.Size]byte
	buf   []byte
}

// neighborDigest folds node v's attribute digest with the sorted multiset of
// (edge bytes, digest of the neighbor), over predecessor edges or successor
// edges. done holds the digests of the nodes already folded in this
// direction: called along the topological order with predecessor edges it
// digests the full ancestor structure; called against the order with
// successor edges, the full descendant structure.
func (s *digestScratch) neighborDigest(g *Graph, v int, attr, done [][sha256.Size]byte, successors bool) [sha256.Size]byte {
	incident := g.InEdges(v)
	if successors {
		incident = g.OutEdges(v)
	}
	s.items = s.items[:0]
	for _, ei := range incident {
		e := &g.edges[ei]
		nb := e.From
		if successors {
			nb = e.To
		}
		var item [8 + sha256.Size]byte
		binary.LittleEndian.PutUint64(item[:], uint64(e.Bytes))
		copy(item[8:], done[nb][:])
		s.items = append(s.items, item)
	}
	slices.SortFunc(s.items, func(a, b [8 + sha256.Size]byte) int { return bytes.Compare(a[:], b[:]) })
	s.buf = append(s.buf[:0], attr[v][:]...)
	for i := range s.items {
		s.buf = append(s.buf, s.items[i][:]...)
	}
	return sha256.Sum256(s.buf)
}

// canonicalPositions turns structural signatures into a total canonical
// order — pos[v] is node v's position — by partition refinement with
// individualization. It also reports how many refinement keys it computed,
// the unit of its work (TestFingerprintWorkBound).
//
// The state is an ordered partition of the nodes: perm lists them class by
// class, and a node's rank is the index of its class, dense from 0. The
// first partition groups equal signatures, in signature order. A refinement
// round keys the members of a class by mixing their rank with the sorted
// (neighbor rank, edge bytes, direction) of every incident edge, sorts the
// class's segment of perm by key and cuts it wherever the key changes: a
// class only ever splits, in place, into sub-classes ordered by key. When
// nothing is left to split and ties remain, the first class with more than
// one member is individualized — every member becomes its own class, in
// descending node-ID order — and refinement resumes, so the choice
// propagates to everything that distinguishes itself relative to the peeled
// class (two parallel identical chains stay aligned as chains). Members of a
// class at a refinement fixpoint are indistinguishable by full
// ancestor/descendant structure, so for automorphic ties — the
// replicated-branch patterns real models exhibit — any individualization
// order yields the same encoding.
//
// Which classes a round keys is the worklist. A key is a function of the
// node's rank and of the classes its neighbors are in, so members that
// keyed equal stay equal until the class of one of their neighbors splits.
// A round's candidates are therefore the non-singleton classes holding a
// neighbor of a member of a class that split in the round before: every
// non-singleton class in the first round, the neighbors of the peeled class
// after an individualization. The fixpoint is an empty worklist. Peeling a
// tie class thus costs its neighborhood, not the graph — BERT peels 49
// classes, and k parallel chains propagate a peel one level per round. (A
// class is keyed again for every neighboring split, not only for the smaller
// halves as in Hopcroft's rule, so the n+m multiple is what the test measures
// on the shapes it names, not a proven worst case.)
//
// Ranks are renumbered densely after every round and every peel — an O(n)
// pass from the first split class on — because the rank is hashed into the
// keys: the order of the sub-classes a class splits into, and with it the
// canonical order and the fingerprint, is the order of key values computed
// from dense ranks. All keys of a round are taken from the ranks the round
// started with. Each key, each split and each peel is then the one
// refinement over the whole graph arrives at, and the positions equal its
// positions node for node: fingerprint_ref_test.go keeps that algorithm,
// TestFingerprintMatchesReference and FuzzFingerprint compare the two.
//
// The keys use cheap 64-bit mixing rather than a cryptographic hash. A
// collision leaves two distinguishable nodes in one class. Whole-graph
// refinement would key them again from renumbered ranks the next round and
// part them; here they stay together until a neighbor's class splits or the
// class is peeled. Either way the worst outcome is a perturbed canonical
// *order* — a spurious cache miss, ~2^-64 per node pair, and only then a
// position that differs from the reference — never a false cache hit: the
// fingerprint hashes the actual relabeled attributes and edges with SHA-256.
func canonicalPositions(g *Graph, sig [][sha256.Size]byte) (pos []int, keyed int) {
	n := len(sig)
	r := refiner{
		g:      g,
		perm:   make([]int32, n),
		rank:   make([]int32, n),
		start:  make([]int32, n),
		end:    make([]int32, n),
		key:    make([]uint64, n),
		queued: make([]bool, n),
	}
	for i := range r.perm {
		r.perm[i] = int32(i)
	}
	slices.SortFunc(r.perm, func(a, b int32) int { return bytes.Compare(sig[a][:], sig[b][:]) })
	for s := 0; s < n; {
		e := s + 1
		for e < n && sig[r.perm[e]] == sig[r.perm[s]] {
			e++
		}
		r.setClass(int32(s), int32(e))
		if e-s > 1 {
			r.work = append(r.work, int32(s))
		}
		s = e
	}
	r.renumber(0)

	// Classes only split, so the first non-singleton class only moves right.
	for tied := int32(0); ; {
		for len(r.work) > 0 {
			r.round()
		}
		for tied < int32(n) && r.end[tied] == tied+1 {
			tied++
		}
		if tied == int32(n) {
			break
		}
		r.peel(tied)
	}

	pos = make([]int, n)
	for v, rk := range r.rank {
		pos[v] = int(rk) // every class is a singleton: rank is position
	}
	return pos, r.keyed
}

// refiner is canonicalPositions' ordered partition and its scratch.
type refiner struct {
	g *Graph
	// perm lists the nodes class by class; rank[v] is the dense index of
	// v's class, start[v] the position in perm where that class begins, and
	// end[s], for a position s that begins a class, the position after the
	// class's last member.
	perm, rank, start, end []int32
	// key[v] is v's refinement key, valid within the round that computed it.
	key []uint64
	// work holds the start positions of the classes the next round keys;
	// queued[s] marks the ones already on it.
	work   []int32
	queued []bool
	// Scratch: the classes [s,e) a round split, as s,e pairs, and one
	// node's incident-edge items.
	split []int32
	items []uint64

	keyed int
}

// setClass makes perm[s:e] one class.
func (r *refiner) setClass(s, e int32) {
	r.end[s] = e
	for _, v := range r.perm[s:e] {
		r.start[v] = s
	}
}

// renumber re-derives the dense ranks from position from on. from begins a
// class, and everything before it is unchanged, so the (old) rank of the
// node now at from is still the rank of that class.
func (r *refiner) renumber(from int32) {
	rk := r.rank[r.perm[from]]
	for s := from; int(s) < len(r.perm); s = r.end[s] {
		for _, v := range r.perm[s:r.end[s]] {
			r.rank[v] = rk
		}
		rk++
	}
}

// round keys every class on the worklist from the current ranks, splits the
// ones whose members' keys differ, renumbers, and leaves the next round's
// candidates on the worklist.
func (r *refiner) round() {
	r.split = r.split[:0]
	first := int32(len(r.perm))
	for _, s := range r.work {
		r.queued[s] = false
		e := r.end[s]
		class := r.perm[s:e]
		for _, v := range class {
			r.key[v] = r.nodeKey(int(v))
		}
		r.keyed += len(class)
		slices.SortFunc(class, func(a, b int32) int { return cmp.Compare(r.key[a], r.key[b]) })
		if r.key[class[0]] == r.key[class[len(class)-1]] {
			continue
		}
		for sub := s; sub < e; {
			subEnd := sub + 1
			for subEnd < e && r.key[r.perm[subEnd]] == r.key[r.perm[sub]] {
				subEnd++
			}
			r.setClass(sub, subEnd)
			sub = subEnd
		}
		r.split = append(r.split, s, e)
		first = min(first, s)
	}
	r.work = r.work[:0]
	if len(r.split) == 0 {
		return
	}
	r.renumber(first)
	for i := 0; i < len(r.split); i += 2 {
		r.queueNeighbors(r.split[i], r.split[i+1])
	}
}

// peel individualizes the class beginning at position s: its members become
// singleton classes in descending node-ID order.
func (r *refiner) peel(s int32) {
	e := r.end[s]
	slices.SortFunc(r.perm[s:e], func(a, b int32) int { return cmp.Compare(b, a) })
	for i := s; i < e; i++ {
		r.setClass(i, i+1)
	}
	r.renumber(s)
	r.queueNeighbors(s, e)
}

// nodeKey is one node's refinement key: its rank mixed with the sorted
// rank-labeled incident edges on both sides. The rank leads, so keys of
// different classes are never compared.
func (r *refiner) nodeKey(v int) uint64 {
	g := r.g
	r.items = r.items[:0]
	for _, ei := range g.InEdges(v) {
		e := &g.edges[ei]
		r.items = append(r.items, mix3(uint64(r.rank[e.From]), uint64(e.Bytes), 'i'))
	}
	for _, ei := range g.OutEdges(v) {
		e := &g.edges[ei]
		r.items = append(r.items, mix3(uint64(r.rank[e.To]), uint64(e.Bytes), 'o'))
	}
	slices.Sort(r.items)
	k := mix64(uint64(r.rank[v]) ^ 0x6d63b0a5f1e2d3c4)
	for _, item := range r.items {
		k = mix64(k ^ item)
	}
	return k
}

// queueNeighbors puts on the worklist every non-singleton class holding a
// neighbor of a node in perm[s:e] — the members of a class that just split.
func (r *refiner) queueNeighbors(s, e int32) {
	g := r.g
	for _, v := range r.perm[s:e] {
		for _, ei := range g.InEdges(int(v)) {
			r.queue(g.edges[ei].From)
		}
		for _, ei := range g.OutEdges(int(v)) {
			r.queue(g.edges[ei].To)
		}
	}
}

func (r *refiner) queue(w int) {
	if s := r.start[w]; r.end[s]-s > 1 && !r.queued[s] {
		r.queued[s] = true
		r.work = append(r.work, s)
	}
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

// rawFingerprint hashes nodes and edges in ID order, without
// canonicalization. It is the fallback for graphs Layout rejects.
func (g *Graph) rawFingerprint() string {
	le := binary.LittleEndian
	attr := attrDigests(g)
	buf := make([]byte, 0, 16+sha256.Size*len(attr)+24*len(g.edges))
	buf = le.AppendUint64(buf, uint64(len(attr)))
	for v := range attr {
		buf = append(buf, attr[v][:]...)
	}
	buf = le.AppendUint64(buf, uint64(len(g.edges)))
	for _, e := range g.edges {
		buf = le.AppendUint64(buf, uint64(e.From))
		buf = le.AppendUint64(buf, uint64(e.To))
		buf = le.AppendUint64(buf, uint64(e.Bytes))
	}
	return hexSHA256(buf)
}
