// Package cpsolver implements the constraint solver the RL partitioner leans
// on (Sec. 4.2). The paper uses CP-SAT; this is a from-scratch CP solver
// providing the same interface the paper's Algorithms 1 and 2 rely on:
//
//   - get_domain(u): the set of chips node u may still be assigned to,
//   - set_domain(u, {c}): assign a chip, run constraint propagation, and
//     backtrack to an earlier decision when the assignment is infeasible.
//
// The solver enforces the three static constraints of the problem
// formulation: acyclic dataflow (bounds propagation over precedence edges),
// no skipping chips (prefix coverage reasoning), and the chip triangle
// dependency (incremental longest-path checking over the chip-level quotient
// graph). Assignments are undone through a trail, so the solver backtracks
// chronologically exactly as the paper describes: set_domain returns the new
// decision index, which decreases when the solver had to undo decisions.
//
//mcmlint:deterministic
//mcmlint:hotpath
package cpsolver

import (
	"errors"
	"fmt"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
)

// Errors returned by the solver.
var (
	// ErrInfeasible means the constraints admit no solution (the solver
	// backtracked past the first decision).
	ErrInfeasible = errors.New("cpsolver: infeasible")
	// ErrBacktrackBudget means the solver exceeded its backtrack budget;
	// callers usually retry with a different node order.
	ErrBacktrackBudget = errors.New("cpsolver: backtrack budget exhausted")
	// ErrValueNotInDomain is returned by Assign when the requested chip
	// has already been pruned from the node's domain.
	ErrValueNotInDomain = errors.New("cpsolver: value not in domain")
)

// Stats counts solver work; it is reset by Reset.
type Stats struct {
	// Decisions is the number of Assign/Skip decisions applied.
	Decisions int
	// Backtracks is the number of decisions undone after conflicts.
	Backtracks int
	// Propagations is the number of domain changes made by propagation.
	Propagations int
	// TriangleChecks is the number of full chip-graph triangle audits.
	TriangleChecks int
}

// trail entry kinds.
const (
	trailDomain = iota // restore doms[a] to old
	trailAdj           // decrement adjCount[a][b]
	trailBound         // clear bound[a]
)

type trailEntry struct {
	kind int
	a, b int32
	old  Domain
}

// chipPair is an ordered chip dependency (a < b).
type chipPair struct{ a, b int8 }

// adjEvent records which decision level first inserted a chip pair into the
// quotient graph.
type adjEvent struct {
	pair  chipPair
	level int32
}

// decision is one solver decision: either a value choice for a node or a
// skip (FIX mode phase 1 passes over nodes whose hinted value is invalid).
type decision struct {
	node      int
	value     int
	skip      bool
	trailMark int
}

// Options configure a Solver.
type Options struct {
	// ChipCapacityBytes, when non-empty (length = chip count), adds a
	// per-chip memory bound to the static constraints: the total weight
	// footprint placed on chip c may not exceed ChipCapacityBytes[c]. It
	// is a necessary condition for the dynamic SRAM constraint —
	// heterogeneous packages use it so little dies are not handed layers
	// that can never fit (see NewAutoPkg). Activations are still only
	// checked dynamically by the simulator.
	ChipCapacityBytes []int64
}

// maxBacktracks bounds the total number of undone decisions per Sample/Fix
// solve (across restarts) before the solver gives up with
// ErrBacktrackBudget.
const maxBacktracks = 200000

// Solver is a CP solver over one graph/package pair. It is stateful: callers
// make decisions with Assign/Skip and can rewind everything with Reset. The
// high-level Sample and Fix entry points implement the paper's Algorithms 1
// and 2 on top of that interface. A Solver is not safe for concurrent use.
type Solver struct {
	g     *graph.Graph
	chips int

	doms  []Domain
	bound []bool

	trail     []trailEntry
	decisions []decision
	rootMark  int // trail length after root propagation

	// Chip-level quotient graph over bound nodes, for the triangle
	// constraint: adjCount[a][b] counts graph edges between bound nodes
	// on chips a != b; chipAdj caches the non-zero structure as bitrows.
	adjCount [][]int32
	chipAdj  []Domain
	// adjStack records, for every chip pair currently in the quotient
	// graph, the decision level that inserted it; conflict-directed
	// backjumping uses it to find the culprit of a triangle conflict.
	adjStack []adjEvent
	// conflictPairs holds the chip pairs involved in the most recent
	// triangle conflict (the direct pair plus one longest path), or is
	// empty when the last conflict was not a triangle violation.
	conflictPairs []chipPair

	// lay is the graph's layout. The completion-weighted value prior reads
	// a node's pipeline position (Pos) and how many chip boundaries a
	// contiguous partition can still place from there on (CapFrom), which
	// says how urgently the assignment must climb toward the last chip.
	lay *graph.Layout

	// Per-chip static memory bound (nil when Options.ChipCapacityBytes is
	// unset): nodeParams caches each node's weight footprint and paramUsed
	// the total bound onto each chip, maintained through the trail.
	capacity   []int64
	nodeParams []int64
	paramUsed  []int64

	// Scratch queue for propagation.
	queue []int32
	inQ   []bool
	// Per-solve scratch reused across Sample/Fix calls so the hot loop
	// settles to zero allocations after warm-up.
	orderSeen []bool
	posOf     []int

	stats      Stats
	backtracks int // against btLimit, reset per attempt
	btLimit    int // current per-attempt backtrack limit
}

// New builds a solver for partitioning g onto a package with the given
// number of chips and runs root propagation. It returns an error if the
// graph is invalid, the chip count is out of range, or the instance is
// infeasible at the root.
func New(g *graph.Graph, chips int, opts Options) (*Solver, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if chips <= 0 || chips > mcm.MaxChips {
		return nil, fmt.Errorf("cpsolver: chip count %d out of range 1..%d", chips, mcm.MaxChips)
	}
	lay, err := g.Layout()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	s := &Solver{
		g:         g,
		lay:       lay,
		chips:     chips,
		doms:      make([]Domain, n),
		bound:     make([]bool, n),
		chipAdj:   make([]Domain, chips),
		inQ:       make([]bool, n),
		orderSeen: make([]bool, n),
		posOf:     make([]int, n),
	}
	s.adjCount = make([][]int32, chips)
	for i := range s.adjCount {
		s.adjCount[i] = make([]int32, chips)
	}
	if caps := opts.ChipCapacityBytes; len(caps) != 0 {
		if len(caps) != chips {
			return nil, fmt.Errorf("cpsolver: %d chip capacities for %d chips", len(caps), chips)
		}
		s.capacity = caps
		s.paramUsed = make([]int64, chips)
		s.nodeParams = make([]int64, n)
		for v := 0; v < n; v++ {
			s.nodeParams[v] = g.Node(v).ParamBytes
		}
	}
	full := fullDomain(chips)
	for i := range s.doms {
		d := full
		// Static per-chip memory bound, node-level part: a node whose
		// weights alone exceed a chip's capacity can never sit there.
		if s.capacity != nil {
			for c := 0; c < chips; c++ {
				if s.nodeParams[i] > s.capacity[c] {
					d &^= single(c)
				}
			}
			if d.Empty() {
				return nil, ErrInfeasible
			}
		}
		s.doms[i] = d
	}
	// Root propagation: detects trivially infeasible instances and binds
	// anything forced from the start (e.g. single-chip packages).
	for v := 0; v < n; v++ {
		s.enqueue(int32(v))
	}
	if conflict := s.propagate(); conflict {
		return nil, ErrInfeasible
	}
	s.rootMark = len(s.trail)
	s.btLimit = maxBacktracks
	return s, nil
}

// NumNodes returns the number of decision variables (graph nodes).
func (s *Solver) NumNodes() int { return s.g.NumNodes() }

// Chips returns the number of chips C.
func (s *Solver) Chips() int { return s.chips }

// Stats returns cumulative work counters since the last Reset.
func (s *Solver) StatsSnapshot() Stats { return s.stats }

// Domain returns node u's current domain (the paper's get_domain).
func (s *Solver) Domain(u int) Domain { return s.doms[u] }

// Reset rewinds the solver to the root state (no decisions) and clears the
// backtrack budget and statistics. Domains return to their
// post-root-propagation values.
func (s *Solver) Reset() {
	s.resetKeepStats()
	s.stats = Stats{}
	s.btLimit = maxBacktracks
}

// resetKeepStats rewinds decisions without touching the work counters; the
// restart loops in Sample and Fix use it so statistics span all attempts.
func (s *Solver) resetKeepStats() {
	s.undoTo(s.rootMark)
	s.decisions = s.decisions[:0]
	s.backtracks = 0
}

// Assign implements the paper's set_domain(u, {c}): it records a decision
// assigning node u to chip c, propagates, and on conflict backtracks to an
// earlier decision. It returns the new decision index (which may be lower
// than before), ErrValueNotInDomain if c was already pruned, ErrInfeasible
// if the instance has no solution under the current root, or
// ErrBacktrackBudget.
func (s *Solver) Assign(u, c int) (int, error) {
	if !s.doms[u].Has(c) {
		return len(s.decisions), ErrValueNotInDomain
	}
	s.decisions = append(s.decisions, decision{node: u, value: c, trailMark: len(s.trail)})
	s.stats.Decisions++
	s.setDomain(int32(u), single(c))
	s.enqueue(int32(u))
	if !s.propagate() {
		return len(s.decisions), nil
	}
	return s.recover()
}

// Skip records a pass-over decision for node u that leaves its domain
// unchanged (FIX mode uses this when the hinted value is invalid). It
// returns the new decision index.
func (s *Solver) Skip(u int) int {
	s.decisions = append(s.decisions, decision{node: u, skip: true, trailMark: len(s.trail)})
	s.stats.Decisions++
	return len(s.decisions)
}

// recover handles a conflict: choose a culprit decision, undo everything
// above it, exclude its value in the parent context, re-propagate, and
// repeat while conflicts persist.
//
// For most conflicts the culprit is the most recent value decision
// (chronological backtracking). Triangle conflicts get conflict-directed
// backjumping instead: the violation names a direct chip dependency and an
// indirect path, and the decision that inserted the most recent of those
// chip edges is the culprit; decisions above it are popped without value
// exclusion. Chronological climbing cannot repair triangle conflicts — the
// violation is typically created ~tens of decisions before it is detected
// (when the second endpoint of a long skip/residual edge finally binds), and
// excluding values at the detection point only pushes assignments further
// up, exploring an exponential dead subtree.
func (s *Solver) recover() (int, error) {
	for {
		// Chronological first: pop the top value decision and negate it.
		// Cheap and correct when the newest value choice is at fault —
		// the common case (the audit fires the moment a bad value binds).
		var d decision
		for {
			if len(s.decisions) == 0 {
				return 0, ErrInfeasible
			}
			d = s.decisions[len(s.decisions)-1]
			s.decisions = s.decisions[:len(s.decisions)-1]
			s.undoTo(d.trailMark)
			s.stats.Backtracks++
			s.backtracks++
			if !d.skip {
				break
			}
		}
		if s.backtracks > s.btLimit {
			return len(s.decisions), ErrBacktrackBudget
		}
		nd := s.doms[d.node] &^ single(d.value)
		if nd.Empty() {
			// The node has no values left under the parent context. If a
			// triangle conflict drained it, chronological unwinding would
			// climb an exponential dead subtree: the real culprit is the
			// decision that inserted one of the path edges (typically a
			// chip boundary placed inside a residual window dozens of
			// decisions ago). Backjump there instead.
			if target := s.triangleCulprit(); target >= 0 {
				for len(s.decisions) > target+1 {
					dd := s.decisions[len(s.decisions)-1]
					s.decisions = s.decisions[:len(s.decisions)-1]
					s.undoTo(dd.trailMark)
					s.stats.Backtracks++
					s.backtracks++
				}
			}
			continue
		}
		s.setDomain(int32(d.node), nd)
		s.enqueue(int32(d.node))
		if !s.propagate() {
			return len(s.decisions), nil
		}
	}
}

// triangleCulprit returns the decision index of the most recent inserter of
// a chip pair involved in the pending triangle conflict, strictly below the
// current decision count, or -1 when there is no triangle context. The jump
// is heuristic (popped in-between decisions also contributed), so the solver
// trades completeness for tractability; every emitted partition is
// re-validated, and restarts plus the backtrack budget bound the search.
func (s *Solver) triangleCulprit() int {
	if len(s.conflictPairs) == 0 {
		return -1
	}
	top := len(s.decisions)
	level := -1
	for _, ev := range s.adjStack {
		if int(ev.level) >= top {
			continue
		}
		for _, cp := range s.conflictPairs {
			if ev.pair == cp && int(ev.level) > level {
				level = int(ev.level)
			}
		}
	}
	s.conflictPairs = s.conflictPairs[:0]
	return level
}

// setDomain writes a new domain for v, recording the old value on the trail.
func (s *Solver) setDomain(v int32, nd Domain) {
	s.trail = append(s.trail, trailEntry{kind: trailDomain, a: v, old: s.doms[v]})
	s.doms[v] = nd
}

// undoTo rewinds the trail to the given mark.
func (s *Solver) undoTo(mark int) {
	for len(s.trail) > mark {
		e := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		switch e.kind {
		case trailDomain:
			s.doms[e.a] = e.old
		case trailAdj:
			s.adjCount[e.a][e.b]--
			if s.adjCount[e.a][e.b] == 0 {
				s.chipAdj[e.a] &^= single(int(e.b))
				s.adjStack = s.adjStack[:len(s.adjStack)-1]
			}
		case trailBound:
			s.bound[e.a] = false
			if s.capacity != nil {
				s.paramUsed[e.b] -= s.nodeParams[e.a]
			}
		}
	}
	// Propagation queue contents are invalid after an undo.
	for _, v := range s.queue {
		s.inQ[v] = false
	}
	s.queue = s.queue[:0]
}

// Solution returns the chip assignment once every node is bound. It returns
// false if any node is still undecided.
func (s *Solver) Solution() ([]int, bool) {
	out := make([]int, len(s.doms))
	for v, d := range s.doms {
		if !d.Singleton() {
			return nil, false
		}
		out[v] = d.Min()
	}
	return out, true
}
