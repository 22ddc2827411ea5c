package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/bits"
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
// Canonicalization: every node gets a 64-bit structural signature mixing
// its full ancestor structure (folded forward in topological order) and its
// full descendant structure (folded backward), each folding in the node's
// operator and cost fields plus the byte sizes of the incident edges.
// Signature ranks are then refined against neighbor ranks to a fixpoint;
// whenever a group of nodes remains tied, the group is individualized and
// refinement re-run, so a tie-break choice propagates consistently to the
// tied nodes' neighborhoods (two parallel identical chains stay aligned as
// chains instead of being interleaved by insertion order). Nodes still tied
// after refinement are indistinguishable by their entire ancestor and
// descendant structure, and the individualization order among them cannot
// change the encoding for any graph whose ties are true automorphisms —
// which covers the replicated-branch patterns real models exhibit.
//
// Only the final hash is cryptographic. It is SHA-256 over an injective
// encoding of the graph relabeled by canonical position — node count, every
// node's raw attribute record in canonical order, edge count, the edges —
// so equal fingerprints mean equal graphs position by position. Signatures
// and refinement keys only choose the order; a collision among them can
// perturb it (a spurious cache miss), never make two different graphs
// encode alike.
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
	d.fpOnce.Do(func() {
		d.fingerprint, d.canonical = g.fingerprint()
		d.canonicalized.Store(true)
	})
	return d
}

// Canonicalized reports whether g's fingerprint and canonical positions are
// already known — computed by Fingerprint or CanonicalPositions, or given
// by SeedCanonical — so that reading them costs nothing. A graph that grew
// since is not: its new state has its own.
func (g *Graph) Canonicalized() bool { return g.derived().canonicalized.Load() }

// StructureDigest returns the SHA-256 of the graph's raw structure: node
// count, every node's attribute record in ID order, edge count, and the
// edges in insertion order — the encoding rawFingerprint hashes, without
// names. Fingerprint and CanonicalPositions read nothing else of a graph,
// so two graphs with equal digests have equal fingerprints and equal
// canonical positions; unlike those, the digest is one streaming pass
// (≈1.2 ms at 10k nodes and 20k edges on a 2-vCPU Xeon, against ≈4.5 ms to
// canonicalize a graph whose layout is built), memoized with them for the
// graph's state. It is what a caller that has canonicalized a structure
// before keys what it found by, to SeedCanonical a renamed copy with it, and
// what the planner keys every per-graph store by without canonicalizing
// the graph: it covers all that a plan reads of a graph, which reads no
// name, so graphs with equal digests plan alike.
func (g *Graph) StructureDigest() [32]byte {
	d := g.derived()
	d.digestOnce.Do(func() { d.digest = g.structureDigest() })
	return d.digest
}

// structureDigest computes StructureDigest.
func (g *Graph) structureDigest() [32]byte {
	w := newEncoder()
	w.u64(uint64(len(g.nodes)))
	for v := range g.nodes {
		w.node(&g.nodes[v])
	}
	w.u64(uint64(len(g.edges)))
	for _, e := range g.edges {
		w.u64(uint64(e.From))
		w.u64(uint64(e.To))
		w.u64(uint64(e.Bytes))
	}
	return w.digest()
}

// SeedCanonical gives g the fingerprint and canonical positions that
// Fingerprint and CanonicalPositions computed for a graph with g's
// StructureDigest, so that neither is computed for g: every later reader of
// either, on any goroutine, gets these. It is a no-op when g has its own
// already. positions is shared, as CanonicalPositions' result is: nobody
// may modify it. Seeding values that belong to another structure is the
// caller's error and makes every plan keyed on g wrong.
func (g *Graph) SeedCanonical(fingerprint string, positions []int) {
	d := g.derived()
	d.fpOnce.Do(func() {
		d.fingerprint, d.canonical = fingerprint, positions
		d.canonicalized.Store(true)
	})
}

func (g *Graph) fingerprint() (string, []int) {
	n := len(g.nodes)
	if n == 0 {
		w := newEncoder()
		w.u64(0)
		return w.sum(), nil
	}
	lay, err := g.Layout()
	if err != nil {
		// Cyclic graphs never reach planning (Validate rejects them), but
		// Fingerprint must still be total and content-determined: hash the
		// raw ID-ordered encoding instead.
		return g.rawFingerprint(), nil
	}

	pos, _ := canonicalPositions(g, signatures(g, lay.Order))
	perm := make([]int32, n)
	for v, p := range pos {
		perm[p] = int32(v)
	}

	// Edges are hashed sorted by (from, to, bytes) position triple: walking
	// the nodes in canonical order and sorting each one's own out-list
	// emits exactly that sequence.
	w := newEncoder()
	w.u64(uint64(n))
	for _, v := range perm {
		w.node(&g.nodes[v])
	}
	w.u64(uint64(len(g.edges)))
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
			w.u64(uint64(p))
			w.u64(o[0])
			w.u64(o[1])
		}
	}
	return w.sum(), pos
}

// encoder streams an encoding of little-endian uint64 words into one
// SHA-256 through a small reused chunk, so the encoding is never held
// whole.
type encoder struct {
	h     hash.Hash
	n     int // bytes of chunk in use
	chunk [4096]byte
}

func newEncoder() *encoder { return &encoder{h: sha256.New()} }

func (w *encoder) u64(x uint64) {
	if w.n == len(w.chunk) {
		w.h.Write(w.chunk[:])
		w.n = 0
	}
	binary.LittleEndian.PutUint64(w.chunk[w.n:], x)
	w.n += 8
}

// node writes a node's attribute record: the ID- and name-independent
// fields, raw, 32 bytes.
func (w *encoder) node(nd *Node) {
	w.u64(uint64(nd.Op))
	w.u64(math.Float64bits(nd.FLOPs))
	w.u64(uint64(nd.ParamBytes))
	w.u64(uint64(nd.OutputBytes))
}

// digest returns the SHA-256 of everything written.
func (w *encoder) digest() (sum [32]byte) {
	w.h.Write(w.chunk[:w.n])
	w.h.Sum(sum[:0])
	return sum
}

// sum returns the hex SHA-256 of everything written.
func (w *encoder) sum() string {
	sum := w.digest()
	return hex.EncodeToString(sum[:])
}

// attrMix mixes a node's attribute record to 64 bits.
func attrMix(nd *Node) uint64 {
	return mix3(mix3(uint64(nd.Op), math.Float64bits(nd.FLOPs), uint64(nd.ParamBytes)), uint64(nd.OutputBytes), 'a')
}

// signatures returns every node's 64-bit structural signature: the mix of
// its ancestor half (folded forward along the topological order) and its
// descendant half (folded backward along it).
//
// A half folds the node's attribute mix with the sorted multiset of
// (edge bytes, the neighbor's half) over its predecessor edges or its
// successor edges. Folding forward with predecessor edges, every
// predecessor's half is done before the node's: it mixes the full ancestor
// structure. Backward with successor edges, the full descendant structure.
// Both passes overwrite an array of attribute mixes in place.
func signatures(g *Graph, order []int) []uint64 {
	up := make([]uint64, len(order))
	for v := range up {
		up[v] = attrMix(&g.nodes[v])
	}
	down := slices.Clone(up)
	var items []uint64 // one node's incident-edge items, reused
	fold := func(v int, half []uint64, successors bool) {
		incident, tag := g.InEdges(v), uint64('u')
		if successors {
			incident, tag = g.OutEdges(v), 'd'
		}
		items = items[:0]
		for _, ei := range incident {
			e := &g.edges[ei]
			nb := e.From
			if successors {
				nb = e.To
			}
			items = append(items, mix3(uint64(e.Bytes), half[nb], tag))
		}
		slices.Sort(items)
		k := half[v]
		for _, item := range items {
			k = mix64(k ^ item)
		}
		half[v] = k
	}
	for _, v := range order {
		fold(v, up, false)
	}
	for i := len(order) - 1; i >= 0; i-- {
		fold(order[i], down, true)
	}
	sig := up // up[v] is last read when sig[v] is written
	for v := range sig {
		sig[v] = mix3(up[v], down[v], 's')
	}
	return sig
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
// TestFingerprintMatchesReference and FuzzFingerprint feed it the same
// signatures and compare the two.
//
// The signatures and keys use cheap 64-bit mixing rather than a
// cryptographic hash. A collision leaves two distinguishable nodes in one
// class. Whole-graph refinement would key them again from renumbered ranks
// the next round and part them; here they stay together until a neighbor's
// class splits or the class is peeled. Either way the worst outcome is a perturbed canonical
// *order* — a spurious cache miss, ~2^-64 per node pair, and only then a
// position that differs from the reference — never a false cache hit: the
// fingerprint hashes the actual relabeled attributes and edges with SHA-256.
func canonicalPositions(g *Graph, sig []uint64) (pos []int, keyed int) {
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
	// Sort the nodes by signature as one []uint64, each node ID in the low
	// bits of its signature: sorting plain words is the cheapest sort there
	// is, and this one was the largest step of the fingerprint. A run of
	// words that share the high bits is then in ID order, so it is re-sorted
	// by whole signature (TestCanonicalPositionsOrdersBySignature).
	mask := uint64(1)<<bits.Len(uint(n)) - 1
	packed := r.key // free until the first round
	for v := range packed {
		packed[v] = sig[v]&^mask | uint64(v)
	}
	slices.Sort(packed)
	for i, w := range packed {
		r.perm[i] = int32(w & mask)
	}
	for s := 0; s < n; {
		e := s + 1
		for e < n && packed[e]&^mask == packed[s]&^mask {
			e++
		}
		if e-s > 1 {
			slices.SortFunc(r.perm[s:e], func(a, b int32) int { return cmp.Compare(sig[a], sig[b]) })
		}
		s = e
	}
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
// canonicalization: the hex StructureDigest. It is the fallback for graphs
// Layout rejects.
func (g *Graph) rawFingerprint() string {
	sum := g.StructureDigest()
	return hex.EncodeToString(sum[:])
}
