package cpsolver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mcmpart/internal/partition"
)

// RandomOrder returns a uniformly random node traversal order. The paper
// defaults to a fresh random order per solve "to explore a larger decision
// space rather than prioritizing a fixed set of nodes that significantly
// prunes the domain of other nodes".
func RandomOrder(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// RandomTopoOrder returns a random topological order (Kahn's algorithm with
// uniformly random choice among ready nodes). For production-scale graphs
// this is the recommended traversal: conflicts surface at the newest
// decision, where chronological backtracking can repair them locally.
// CP-SAT's clause learning makes arbitrary random orders tractable at that
// scale; a from-scratch chronological solver needs the locality instead
// (see DESIGN.md).
func (s *Solver) RandomTopoOrder(rng *rand.Rand) []int {
	g := s.g
	n := g.NumNodes()
	indeg := make([]int, n)
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		indeg[v] = g.InDegree(v)
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		v := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, s := range g.Successors(v) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// sampleValue draws a chip for node u from the policy row p (nil means
// uniform) restricted to u's current domain and multiplied by a
// completion-weighted prior.
//
// The prior weights chip c by the number of monotone completions a
// chain-shaped relaxation of the instance would still admit: a node at
// topological position pos with R = N-1-pos nodes after it and K = C-1-c
// chips still to reach gets weight C(R, K). Greedy sequential sampling
// without the prior drifts: early nodes grab high chips (or, under tight
// propagation, boundaries all crowd into the graph's prefix), so the
// resulting "uniform" samples are far from uniform over the solution space.
// The binomial prior is exactly the completion count for chains and a good
// surrogate for chain-dominated ML graphs, so sampling stays diverse and
// balanced — which both the Random-search baseline's quality and the
// solver's conflict rate depend on.
func (s *Solver) sampleValue(rng *rand.Rand, p []float64, u int) int {
	d := s.doms[u]
	var weights [64]float64
	mass := s.weightedMass(&weights, p, u, d)
	if mass == 0 {
		// Prior fully starved: fall back to the raw policy.
		for rest := d; rest != 0; rest &= rest - 1 {
			c := rest.Min()
			w := 1.0
			if p != nil {
				w = p[c]
			}
			weights[c] = w
			mass += w
		}
	}
	if mass <= 0 {
		// Zero-mass policy row: uniform over the domain.
		k := rng.Intn(d.Count())
		for rest := d; ; rest &= rest - 1 {
			if k == 0 {
				return rest.Min()
			}
			k--
		}
	}
	x := rng.Float64() * mass
	last := -1
	for rest := d; rest != 0; rest &= rest - 1 {
		c := rest.Min()
		last = c
		x -= weights[c]
		if x <= 0 {
			return c
		}
	}
	return last
}

// weightedMass fills weights[c] = p(c) * C(B, c) * C(A, C-1-c) for every
// chip in the domain (log-space binomials, normalized by the max exponent)
// and returns the total mass. B and A are the boundary slots before and
// after the node's position: C(B, c) counts the ways the partition can have
// climbed to chip c by now and C(A, C-1-c) the ways it can still reach the
// last chip, so the product is the completion count of a contiguous layout
// through (position, chip) — peaking at the balanced diagonal.
func (s *Solver) weightedMass(weights *[64]float64, p []float64, u int, d Domain) float64 {
	after := float64(s.lay.CapFrom[s.lay.Pos[u]])
	before := float64(s.lay.CapFrom[0]) - after
	lgA, _ := math.Lgamma(after + 1)
	lgB, _ := math.Lgamma(before + 1)
	var lw [64]float64
	maxLw := math.Inf(-1)
	for rest := d; rest != 0; rest &= rest - 1 {
		c := rest.Min()
		k := float64(s.chips - 1 - c)
		if k > after || float64(c) > before {
			lw[c] = math.Inf(-1) // not enough boundary slots on one side
			continue
		}
		lg1, _ := math.Lgamma(float64(c) + 1)
		lg2, _ := math.Lgamma(before - float64(c) + 1)
		lg3, _ := math.Lgamma(k + 1)
		lg4, _ := math.Lgamma(after - k + 1)
		lw[c] = lgB - lg1 - lg2 + lgA - lg3 - lg4
		if lw[c] > maxLw {
			maxLw = lw[c]
		}
	}
	if math.IsInf(maxLw, -1) {
		return 0
	}
	var mass float64
	for rest := d; rest != 0; rest &= rest - 1 {
		c := rest.Min()
		w := math.Exp(lw[c] - maxLw)
		if p != nil {
			w *= p[c]
		}
		weights[c] = w
		mass += w
	}
	return mass
}

// Sample implements Algorithm 1 (SAMPLE mode): visit nodes in the given
// order and, for each, draw a chip from the policy distribution restricted
// to the node's current valid domain; the solver propagates after every
// assignment and backtracks when needed. probs may be nil (uniform — this is
// exactly the paper's Random search baseline) or an N x C matrix of
// per-node chip probabilities. The solver is Reset on entry. The partition
// is written into dst and dst returned when dst has one entry per node;
// otherwise a new partition is returned.
func (s *Solver) Sample(dst partition.Partition, order []int, probs [][]float64, rng *rand.Rand) (partition.Partition, error) {
	if err := s.checkOrder(order); err != nil {
		return nil, err
	}
	if probs != nil && len(probs) != s.NumNodes() {
		return nil, fmt.Errorf("cpsolver: probs has %d rows for %d nodes", len(probs), s.NumNodes())
	}
	s.stats = Stats{}
	return s.withRestarts(order, rng, func(ord []int) (partition.Partition, error) {
		n := s.NumNodes()
		i := 0
		for i < n {
			u := ord[i]
			var row []float64
			if probs != nil {
				row = probs[u]
			}
			c := s.sampleValue(rng, row, u)
			var err error
			i, err = s.Assign(u, c)
			if err != nil {
				return nil, err
			}
		}
		return s.finish(dst)
	})
}

// withRestarts runs one solve attempt under a per-attempt backtrack limit,
// restarting with a reshuffled copy of the order (and a doubled limit) when
// the attempt thrashes. Chronological backtracking occasionally digs
// exponential pits; randomized restarts are the standard CP remedy and keep
// the solver's tail latency bounded (CP-SAT does the same). The first
// attempt's limit is 200 + 20 per node; the total budget across attempts is
// maxBacktracks.
func (s *Solver) withRestarts(order []int, rng *rand.Rand, attempt func([]int) (partition.Partition, error)) (partition.Partition, error) {
	total := 0
	limit := 200 + 20*s.g.NumNodes()
	ord := order
	for {
		s.resetKeepStats()
		if rem := maxBacktracks - total; limit > rem {
			limit = rem
		}
		s.btLimit = limit
		p, err := attempt(ord)
		if !errors.Is(err, ErrBacktrackBudget) {
			return p, err
		}
		total += s.backtracks
		if total >= maxBacktracks {
			return nil, fmt.Errorf("%w (total %d backtracks)", ErrBacktrackBudget, total)
		}
		// Re-randomize the traversal, preserving its character: a
		// topological order restarts as a fresh random topological order,
		// anything else as a plain reshuffle.
		if s.isTopological(ord) {
			ord = s.RandomTopoOrder(rng)
		} else {
			if &ord[0] == &order[0] {
				ord = append([]int(nil), order...)
			}
			rng.Shuffle(len(ord), func(i, j int) { ord[i], ord[j] = ord[j], ord[i] })
		}
		limit *= 2
	}
}

// isTopological reports whether the order visits every edge's producer
// before its consumer.
func (s *Solver) isTopological(order []int) bool {
	pos := s.posOf
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range s.g.Edges() {
		if pos[e.From] >= pos[e.To] {
			return false
		}
	}
	return true
}

// Fix implements Algorithm 2 (FIX mode): a first pass pins every node whose
// hinted assignment y[u] is still in its domain (skipping the others), and a
// second pass assigns the remaining nodes random values from their domains
// until a full valid partition emerges. Backtracking may rewind into the
// first pass; the loop index follows the solver's decision count exactly as
// in the paper's pseudocode. The solver is Reset on entry. dst is Sample's.
func (s *Solver) Fix(dst partition.Partition, order []int, y []int, rng *rand.Rand) (partition.Partition, error) {
	if err := s.checkOrder(order); err != nil {
		return nil, err
	}
	n := s.NumNodes()
	if len(y) != n {
		return nil, fmt.Errorf("cpsolver: hint has %d entries for %d nodes", len(y), n)
	}
	s.stats = Stats{}
	return s.withRestarts(order, rng, func(ord []int) (partition.Partition, error) {
		i := 0
		for i < 2*n {
			u := ord[i%n]
			d := s.doms[u]
			var err error
			if i < n {
				if d.Has(y[u]) {
					i, err = s.Assign(u, y[u])
				} else {
					i = s.Skip(u)
				}
			} else {
				c := s.sampleValue(rng, nil, u)
				i, err = s.Assign(u, c)
			}
			if err != nil {
				return nil, err
			}
		}
		return s.finish(dst)
	})
}

// checkOrder validates a node traversal order: it must be a permutation of
// 0..N-1.
func (s *Solver) checkOrder(order []int) error {
	n := s.NumNodes()
	if len(order) != n {
		return fmt.Errorf("cpsolver: order has %d entries for %d nodes", len(order), n)
	}
	seen := s.orderSeen
	for i := range seen {
		seen[i] = false
	}
	for _, u := range order {
		if u < 0 || u >= n || seen[u] {
			return fmt.Errorf("cpsolver: order is not a permutation (node %d)", u)
		}
		seen[u] = true
	}
	return nil
}

// finish extracts the full assignment into dst, as Sample does, and
// re-validates it against the partition checker as a defense-in-depth
// audit; a failure here is a solver bug, reported as an error rather than a
// panic so callers can log context.
func (s *Solver) finish(dst partition.Partition) (partition.Partition, error) {
	sol, ok := s.Solution(dst)
	if !ok {
		return nil, fmt.Errorf("cpsolver: internal error: nodes left unbound after full traversal")
	}
	p := partition.Partition(sol)
	if err := p.Validate(s.g, s.chips); err != nil {
		return nil, fmt.Errorf("cpsolver: internal error: emitted invalid partition: %w", err)
	}
	return p, nil
}
