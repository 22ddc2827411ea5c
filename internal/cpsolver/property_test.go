package cpsolver

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
	"mcmpart/internal/workload"
)

// randomLayeredDAG builds a DAG with both chain and skip structure, the
// shape that stresses all three static constraints at once.
func randomLayeredDAG(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New("prop")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{
			Op:          graph.OpKind(rng.Intn(graph.NumOpKinds)),
			FLOPs:       float64(rng.Intn(1000)) * 1e6,
			ParamBytes:  int64(rng.Intn(1 << 18)),
			OutputBytes: int64(1 + rng.Intn(1<<16)),
		})
		if i > 0 {
			g.MustAddEdge(i-1, i, int64(1+rng.Intn(1<<12)))
		}
		if i > 3 && rng.Intn(4) == 0 {
			back := 2 + rng.Intn(3)
			g.MustAddEdge(i-back, i, int64(1+rng.Intn(1<<12)))
		}
	}
	return g
}

// TestSegmenterAlwaysEmitsValidPartitions: any graph, any chip count, any
// policy matrix — the segment sampler's output satisfies every static
// constraint.
func TestSegmenterAlwaysEmitsValidPartitions(t *testing.T) {
	f := func(seed int64, szRaw, chipRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(szRaw%120)
		chips := 2 + int(chipRaw%30)
		g := randomLayeredDAG(rng, n)
		sg, err := NewSegmenter(g, chips)
		if err != nil {
			return false
		}
		// Uniform and random-policy sampling must both validate.
		p, err := sg.Sample(nil, nil, rng)
		if err != nil || p.Validate(g, chips) != nil {
			return false
		}
		probs := make([][]float64, n)
		for i := range probs {
			probs[i] = make([]float64, chips)
			var sum float64
			for j := range probs[i] {
				probs[i][j] = rng.Float64() + 1e-6
				sum += probs[i][j]
			}
			for j := range probs[i] {
				probs[i][j] /= sum
			}
		}
		p2, err := sg.Sample(nil, probs, rng)
		if err != nil || p2.Validate(g, chips) != nil {
			return false
		}
		// FIX-style projection of arbitrary hints must validate too.
		hint := make([]int, n)
		for i := range hint {
			hint[i] = rng.Intn(chips)
		}
		p3, err := sg.Fit(nil, hint, rng)
		return err == nil && p3.Validate(g, chips) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmenterUsesLayoutChipsExactly: every emitted layout uses exactly the
// layout chip prefix sg.k — never fewer (wasted parallelism) nor more (invalid).
func TestSegmenterUsesLayoutChipsExactly(t *testing.T) {
	f := func(seed int64, szRaw, chipRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(szRaw%80)
		chips := 2 + int(chipRaw%20)
		g := randomLayeredDAG(rng, n)
		sg, err := NewSegmenter(g, chips)
		if err != nil {
			return false
		}
		p, err := sg.Sample(nil, nil, rng)
		if err != nil {
			return false
		}
		return slices.Max(p)+1 == sg.k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSolverDomainsNeverWidenUnderDecisions: domains are monotonically
// narrowed by decisions until Reset.
func TestSolverDomainsNeverWidenUnderDecisions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		chips := 2 + rng.Intn(4)
		g := randomLayeredDAG(rng, n)
		s, err := New(g, chips, Options{})
		if err != nil {
			return false
		}
		before := make([]Domain, n)
		for v := 0; v < n; v++ {
			before[v] = s.Domain(v)
		}
		// Make a few decisions (ignoring conflicts/backtracks: after a
		// successful Assign the current domains must all be subsets of
		// the root domains).
		for k := 0; k < 3; k++ {
			u := rng.Intn(n)
			d := s.Domain(u)
			if d.Empty() {
				return false
			}
			c := d.Min()
			for skip := rng.Intn(d.Count()); skip > 0; skip-- {
				c = (d & maskGE(c+1)).Min()
			}
			if _, err := s.Assign(u, c); err != nil {
				break
			}
			for v := 0; v < n; v++ {
				if s.Domain(v)&^before[v] != 0 {
					return false // domain gained a value
				}
			}
		}
		s.Reset()
		for v := 0; v < n; v++ {
			if s.Domain(v) != before[v] {
				return false // Reset must restore the root exactly
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionerContractOnCorpus: the Auto partitioner must satisfy the
// Partitioner contract (valid outputs in both modes) on real workload
// generators, not just synthetic DAGs.
func TestPartitionerContractOnCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	graphs := workload.CorpusGraphs(5)
	for _, chips := range []int{4, 36} {
		for gi := 0; gi < len(graphs); gi += 9 {
			g := graphs[gi]
			pr, err := NewAutoPkg(g, &mcm.Package{Chips: chips}, Options{})
			if err != nil {
				t.Fatalf("%s/%d: %v", g.Name(), chips, err)
			}
			p, err := pr.SampleMode(nil, rng)
			if err != nil {
				t.Fatalf("%s/%d sample: %v", g.Name(), chips, err)
			}
			if err := partition.Partition(p).Validate(g, chips); err != nil {
				t.Fatalf("%s/%d: %v", g.Name(), chips, err)
			}
			hint := make([]int, g.NumNodes())
			for i := range hint {
				hint[i] = rng.Intn(chips)
			}
			p2, err := pr.FixMode(hint, rng)
			if err != nil {
				t.Fatalf("%s/%d fix: %v", g.Name(), chips, err)
			}
			if err := partition.Partition(p2).Validate(g, chips); err != nil {
				t.Fatalf("%s/%d fix: %v", g.Name(), chips, err)
			}
		}
	}
}
