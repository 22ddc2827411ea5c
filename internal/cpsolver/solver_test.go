package cpsolver

import (
	"errors"
	"math/rand"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/partition"
)

func chain(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New("chain")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 4})
		if i > 0 {
			g.MustAddEdge(i-1, i, 4)
		}
	}
	return g
}

func skipConn(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("skip")
	for i := 0; i < 3; i++ {
		g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 4})
	}
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, 4)
	g.MustAddEdge(0, 2, 4)
	return g
}

func TestNewRejectsBadInputs(t *testing.T) {
	g := chain(t, 3)
	if _, err := New(g, 0, Options{}); err == nil {
		t.Fatal("chips=0 should fail")
	}
	if _, err := New(g, 65, Options{}); err == nil {
		t.Fatal("chips=65 should fail")
	}
	bad := graph.New("cyclic")
	a := bad.AddNode(graph.Node{})
	b := bad.AddNode(graph.Node{})
	bad.MustAddEdge(a, b, 1)
	bad.MustAddEdge(b, a, 1)
	if _, err := New(bad, 4, Options{}); err == nil {
		t.Fatal("cyclic graph should fail")
	}
}

func TestPrecedencePropagation(t *testing.T) {
	s, err := New(chain(t, 6), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Assigning a middle node to chip 2 bounds its neighbors: earlier
	// nodes can no longer sit above chip 2, later nodes not below it.
	if _, err := s.Assign(2, 2); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 2; v++ {
		if d := s.Domain(v); d.Max() > 2 {
			t.Fatalf("dom(%d) = %v, should be <= 2", v, d)
		}
	}
	for v := 3; v < 6; v++ {
		if d := s.Domain(v); d.Min() < 2 {
			t.Fatalf("dom(%d) = %v, should be >= 2", v, d)
		}
	}
}

func TestAssignValueNotInDomain(t *testing.T) {
	s, err := New(chain(t, 4), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Placing the sink on chip 0 forces the whole chain onto chip 0.
	if _, err := s.Assign(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Assign(0, 1); !errors.Is(err, ErrValueNotInDomain) {
		t.Fatalf("Assign(0,1) error = %v, want ErrValueNotInDomain", err)
	}
}

func TestNoSkipBacktrack(t *testing.T) {
	// On a 2-chip package, pinning the head of a chain to chip 1 forces
	// every node onto chip 1, leaving chip 0 unused: the solver must
	// detect the violation and backtrack, pruning chip 1 from the head.
	s, err := New(chain(t, 3), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	i, err := s.Assign(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 {
		t.Fatalf("decision index = %d, want 0 (backtracked)", i)
	}
	if st := s.StatsSnapshot(); st.Backtracks == 0 {
		t.Fatal("expected at least one backtrack")
	}
	if d := s.Domain(0); !d.Singleton() || d.Min() != 0 {
		t.Fatalf("dom(0) = %v, want {0}", d)
	}
}

func TestTriangleBacktrack(t *testing.T) {
	s, err := New(skipConn(t), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Assign(1, 1); err != nil {
		t.Fatal(err)
	}
	// Node 2 on chip 2 would create direct 0->2 alongside 0->1->2.
	i, err := s.Assign(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if i != 2 {
		t.Fatalf("decision index = %d, want 2 (chip 2 excluded, retried)", i)
	}
	sol, ok := s.Solution(nil)
	if ok {
		// If propagation fully bound node 2 it must be on chip 1.
		if sol[2] != 1 {
			t.Fatalf("solution = %v, node 2 must land on chip 1", sol)
		}
	} else if d := s.Domain(2); d.Has(2) {
		t.Fatalf("dom(2) = %v, chip 2 should be pruned", d)
	}
}

func TestSampleUniformProducesValidPartitions(t *testing.T) {
	g := skipConn(t)
	s, err := New(g, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		p, err := s.Sample(nil, RandomOrder(rng, g.NumNodes()), nil, rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(g, 3); err != nil {
			t.Fatalf("trial %d: invalid partition %v: %v", trial, p, err)
		}
	}
}

func TestSampleFollowsPolicyBias(t *testing.T) {
	g := chain(t, 4)
	s, err := New(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Probability mass pushes the first two nodes to chip 0 and the rest
	// to chip 1; the sampled partitions should mostly match.
	probs := [][]float64{{0.99, 0.01}, {0.99, 0.01}, {0.01, 0.99}, {0.01, 0.99}}
	rng := rand.New(rand.NewSource(2))
	match := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		p, err := s.Sample(nil, RandomOrder(rng, 4), probs, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] == 0 && p[1] == 0 && p[2] == 1 && p[3] == 1 {
			match++
		}
	}
	if match < trials/2 {
		t.Fatalf("policy-matching partitions: %d/%d, want a majority", match, trials)
	}
}

func TestFixKeepsValidHint(t *testing.T) {
	g := chain(t, 6)
	s, err := New(g, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hint := []int{0, 0, 1, 1, 2, 2}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		p, err := s.Fix(nil, RandomOrder(rng, 6), hint, rng)
		if err != nil {
			t.Fatal(err)
		}
		for v := range hint {
			if p[v] != hint[v] {
				t.Fatalf("trial %d: Fix changed a valid hint: got %v want %v", trial, p, hint)
			}
		}
	}
}

func TestFixRepairsInvalidHint(t *testing.T) {
	g := skipConn(t)
	s, err := New(g, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The hint violates the triangle constraint (each node its own chip).
	hint := []int{0, 1, 2}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		p, err := s.Fix(nil, RandomOrder(rng, 3), hint, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g, 3); err != nil {
			t.Fatalf("trial %d: Fix emitted invalid %v: %v", trial, p, err)
		}
	}
}

func TestSampleInputValidation(t *testing.T) {
	g := chain(t, 3)
	s, err := New(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if _, err := s.Sample(nil, []int{0, 1}, nil, rng); err == nil {
		t.Fatal("short order should fail")
	}
	if _, err := s.Sample(nil, []int{0, 0, 1}, nil, rng); err == nil {
		t.Fatal("non-permutation order should fail")
	}
	if _, err := s.Sample(nil, []int{0, 1, 2}, [][]float64{{1, 0}}, rng); err == nil {
		t.Fatal("short probs should fail")
	}
	if _, err := s.Fix(nil, []int{0, 1, 2}, []int{0}, rng); err == nil {
		t.Fatal("short hint should fail")
	}
}

func TestResetRestoresDomains(t *testing.T) {
	g := chain(t, 4)
	s, err := New(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Assign(0, 2); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	full := fullDomain(4)
	for v := 0; v < 4; v++ {
		if s.Domain(v) != full {
			t.Fatalf("dom(%d) = %v after Reset, want %v", v, s.Domain(v), full)
		}
	}
	if len(s.decisions) != 0 {
		t.Fatalf("decisions = %d after Reset", len(s.decisions))
	}
}

func TestSolutionIncomplete(t *testing.T) {
	s, err := New(chain(t, 3), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Solution(nil); ok {
		t.Fatal("Solution should report incomplete before any decisions")
	}
}

// TestSamplePropertyRandomDAGs is the core solver property: any graph, any
// order, any seed — the emitted partition satisfies all static constraints
// (finish() already audits this; the test also re-validates independently).
func TestSamplePropertyRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(20)
		chips := 2 + rng.Intn(5)
		g := graph.New("rand")
		for i := 0; i < n; i++ {
			g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 4})
		}
		for v := 1; v < n; v++ {
			u := rng.Intn(v)
			g.MustAddEdge(u, v, 4)
			if rng.Intn(3) == 0 {
				if u2 := rng.Intn(v); u2 != u {
					g.MustAddEdge(u2, v, 4)
				}
			}
		}
		s, err := New(g, chips, Options{})
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		for rep := 0; rep < 3; rep++ {
			p, err := s.Sample(nil, RandomOrder(rng, n), nil, rng)
			if err != nil {
				t.Fatalf("trial %d rep %d: %v", trial, rep, err)
			}
			if err := p.Validate(g, chips); err != nil {
				t.Fatalf("trial %d rep %d: %v", trial, rep, err)
			}
		}
		// FIX mode with a random (likely invalid) hint must repair too.
		hint := make([]int, n)
		for i := range hint {
			hint[i] = rng.Intn(chips)
		}
		p, err := s.Fix(nil, RandomOrder(rng, n), hint, rng)
		if err != nil {
			t.Fatalf("trial %d fix: %v", trial, err)
		}
		if err := p.Validate(g, chips); err != nil {
			t.Fatalf("trial %d fix: %v", trial, err)
		}
	}
}

func TestDomainOps(t *testing.T) {
	d := single(3) | single(5) | single(7)
	if d.Count() != 3 || d.Min() != 3 || d.Max() != 7 {
		t.Fatalf("domain stats wrong: %v", d)
	}
	if !d.Has(5) || d.Has(4) {
		t.Fatalf("Has wrong: %v", d)
	}
	if s := d.String(); s != "{3,5,7}" {
		t.Fatalf("String = %q", s)
	}
	if fullDomain(64) != ^Domain(0) {
		t.Fatal("fullDomain(64) should be all ones")
	}
	if maskGE(0) != ^Domain(0) || maskGE(64) != 0 {
		t.Fatal("maskGE boundary cases")
	}
	if maskLE(-1) != 0 || maskLE(63) != ^Domain(0) {
		t.Fatal("maskLE boundary cases")
	}
	var empty Domain
	if !empty.Empty() || empty.Singleton() {
		t.Fatal("empty domain predicates")
	}
}

func TestDomainMinMaxPanicOnEmpty(t *testing.T) {
	for _, f := range []func(){
		func() { Domain(0).Min() },
		func() { Domain(0).Max() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on empty domain")
				}
			}()
			f()
		}()
	}
}

func TestTopoOrderMode(t *testing.T) {
	g := skipConn(t)
	s, err := New(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := s.lay.Order
	rng := rand.New(rand.NewSource(6))
	p, err := s.Sample(nil, order, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g, 2); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	g := chain(t, 5)
	s, err := New(g, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	if _, err := s.Sample(nil, RandomOrder(rng, 5), nil, rng); err != nil {
		t.Fatal(err)
	}
	if s.StatsSnapshot().Decisions == 0 {
		t.Fatal("expected decisions to be counted")
	}
	s.Reset()
	if s.StatsSnapshot() != (Stats{}) {
		t.Fatal("Reset should clear stats")
	}
}

var benchSink partition.Partition

func benchmarkSample(b *testing.B, n, chips int) {
	g := graph.New("bench")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 4})
		if i > 0 {
			g.MustAddEdge(i-1, i, 4)
		}
		if i > 4 && i%7 == 0 {
			g.MustAddEdge(i-4, i, 4)
		}
	}
	s, err := New(g, chips, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Sample(nil, RandomOrder(rng, n), nil, rng)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

func BenchmarkSampleChain200x8(b *testing.B)   { benchmarkSample(b, 200, 8) }
func BenchmarkSampleChain2000x36(b *testing.B) { benchmarkSample(b, 2000, 36) }
