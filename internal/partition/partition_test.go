package partition

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
)

// fig2Graph builds the 5-node computation graph of the paper's Figure 2a:
// node 0 fans out to nodes 1 and 2; node 1 feeds node 3; nodes 2 and 3 feed
// node 4.
func fig2Graph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("fig2a")
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Node{Name: "op", Op: graph.OpMatMul, FLOPs: 1, OutputBytes: 4})
	}
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(0, 2, 4)
	g.MustAddEdge(1, 3, 4)
	g.MustAddEdge(2, 4, 4)
	g.MustAddEdge(3, 4, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidateAcceptsValidPartitions(t *testing.T) {
	g := fig2Graph(t)
	valid := []Partition{
		{0, 0, 0, 0, 0}, // everything on one chip
		{0, 0, 0, 1, 1}, // two chips, single boundary
		{0, 0, 1, 1, 1}, // two chips, both branch edges cut
		{0, 1, 1, 1, 1}, // cut right after the source
		{0, 0, 0, 0, 1}, // sink alone
	}
	for _, p := range valid {
		if err := p.Validate(g, 4); err != nil {
			t.Errorf("partition %v should be valid: %v", p, err)
		}
	}
}

func TestValidateFigure2Violations(t *testing.T) {
	g := fig2Graph(t)
	tests := []struct {
		name string
		p    Partition
		want error
	}{
		// Figure 2c: data flows from a higher chip back to a lower chip.
		{"acyclic dataflow", Partition{0, 1, 0, 1, 0}, ErrAcyclicDataflow},
		// Figure 2d: chip 1 is skipped while chip 2 is used.
		{"skipping chips", Partition{0, 0, 0, 2, 2}, ErrSkippedChip},
		// Figure 2e: direct dependency 0->2 (edge 2->4) coexists with the
		// indirect chain 0 -> 1 -> 2.
		{"triangle dependency", Partition{0, 1, 0, 1, 2}, ErrTriangleDependency},
		{"chip out of range", Partition{0, 0, 0, 0, 9}, ErrChipRange},
		{"negative chip", Partition{-1, 0, 0, 0, 0}, ErrChipRange},
		{"wrong length", Partition{0, 0}, ErrLength},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate(g, 4)
			if !errors.Is(err, tt.want) {
				t.Fatalf("Validate(%v) = %v, want %v", tt.p, err, tt.want)
			}
		})
	}
}

func TestTriangleAllowsAdjacentChains(t *testing.T) {
	// A pure pipeline 0 -> 1 -> 2 -> 3 where every cut edge connects
	// adjacent chips is the canonical valid layout.
	g := graph.New("chain")
	for i := 0; i < 8; i++ {
		g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 4})
		if i > 0 {
			g.MustAddEdge(i-1, i, 4)
		}
	}
	p := Partition{0, 0, 1, 1, 2, 2, 3, 3}
	if err := p.Validate(g, 4); err != nil {
		t.Fatalf("chain partition should be valid: %v", err)
	}
}

func TestTriangleRejectsSkipEdgeOverChain(t *testing.T) {
	// chain 0->1->2 plus skip edge 0->2; splitting each node to its own
	// chip creates direct 0->2 alongside 0->1->2.
	g := graph.New("skipconn")
	for i := 0; i < 3; i++ {
		g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 4})
	}
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, 4)
	g.MustAddEdge(0, 2, 4)
	if err := (Partition{0, 1, 2}).Validate(g, 4); !errors.Is(err, ErrTriangleDependency) {
		t.Fatalf("want triangle violation, got %v", err)
	}
	// Keeping the residual within one chip is fine.
	if err := (Partition{0, 0, 0}).Validate(g, 4); err != nil {
		t.Fatalf("single-chip placement should be valid: %v", err)
	}
	// Cutting only after the join is fine too.
	g2 := graph.New("skipconn2")
	for i := 0; i < 4; i++ {
		g2.AddNode(graph.Node{FLOPs: 1, OutputBytes: 4})
	}
	g2.MustAddEdge(0, 1, 4)
	g2.MustAddEdge(1, 2, 4)
	g2.MustAddEdge(0, 2, 4)
	g2.MustAddEdge(2, 3, 4)
	if err := (Partition{0, 0, 0, 1}).Validate(g2, 4); err != nil {
		t.Fatalf("cut after join should be valid: %v", err)
	}
}

func TestTriangleAllowsDirectSkipWithoutIndirectPath(t *testing.T) {
	// Two independent chains: 0->1 on chips 0,1 and 2->3 on chips 0,2,
	// creating a direct 0->2 dependency with no indirect path. delta(0,2)
	// is 1, so this is legal under Eq. 4 (chip 1 is still used, so no-skip
	// holds).
	g := graph.New("parallel")
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 4})
	}
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(2, 3, 4)
	p := Partition{0, 1, 0, 2}
	if err := p.Validate(g, 4); err != nil {
		t.Fatalf("direct skip without indirect path should be valid: %v", err)
	}
}

// bruteTriangleViolation is an independent O(C! )-free checker: for each
// direct chip edge (a,b) it searches for any other a->...->b path by DFS.
func bruteTriangleViolation(g *graph.Graph, p Partition, chips int) bool {
	adj := make([][]bool, chips)
	for i := range adj {
		adj[i] = make([]bool, chips)
	}
	for _, e := range g.Edges() {
		a, b := p[e.From], p[e.To]
		if a != b {
			adj[a][b] = true
		}
	}
	var longer func(from, to, depth int) bool
	longer = func(from, to, depth int) bool {
		if from == to {
			return depth >= 2
		}
		for m := from + 1; m < chips; m++ {
			if adj[from][m] && longer(m, to, depth+1) {
				return true
			}
		}
		return false
	}
	for a := 0; a < chips; a++ {
		for b := a + 1; b < chips; b++ {
			if adj[a][b] && longer(a, b, 0) {
				return true
			}
		}
	}
	return false
}

func TestValidateAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		chips := 2 + rng.Intn(4)
		g := graph.New("rand")
		for i := 0; i < n; i++ {
			g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 1})
		}
		for v := 1; v < n; v++ {
			u := rng.Intn(v)
			g.MustAddEdge(u, v, 1)
			if rng.Intn(2) == 0 {
				if u2 := rng.Intn(v); u2 != u {
					g.MustAddEdge(u2, v, 1)
				}
			}
		}
		// Random monotone-ish partition: sometimes valid, sometimes not.
		p := make(Partition, n)
		for i := range p {
			p[i] = rng.Intn(chips)
		}
		err := p.Validate(g, chips)
		// Reproduce the same first-two checks so we can isolate the
		// triangle logic.
		monotone := true
		for _, e := range g.Edges() {
			if p[e.From] > p[e.To] {
				monotone = false
				break
			}
		}
		if !monotone {
			return errors.Is(err, ErrAcyclicDataflow)
		}
		used := make([]bool, chips)
		max := 0
		for _, c := range p {
			used[c] = true
			if c > max {
				max = c
			}
		}
		for d := 0; d <= max; d++ {
			if !used[d] {
				return errors.Is(err, ErrSkippedChip)
			}
		}
		if bruteTriangleViolation(g, p, chips) {
			return errors.Is(err, ErrTriangleDependency)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateAllocs: a valid partition is checked without allocating — the
// used-chip set, the chip adjacency and the longest-path table are
// fixed-size values — so the solver can go on validating every partition it
// emits. The tables were 3C+1 slices per call before.
func TestValidateAllocs(t *testing.T) {
	const n, chips = 360, mcm.MaxChips
	g := graph.New("chain")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 1})
		if i > 0 {
			g.MustAddEdge(i-1, i, 1)
		}
	}
	p := make(Partition, n)
	for i := range p {
		p[i] = i * chips / n
	}
	if slices.Max(p) != chips-1 {
		t.Fatalf("test partition uses chips 0..%d, want every chip", slices.Max(p))
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.Validate(g, chips); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate of a valid partition allocates %v times, want 0", allocs)
	}
}

// TestValidateRejectsChipBeyondMax: the chip tables are sized by
// mcm.MaxChips, so a chip ID past it is out of range whatever chip count
// the caller claims.
func TestValidateRejectsChipBeyondMax(t *testing.T) {
	g := graph.New("pair")
	g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 1})
	g.AddNode(graph.Node{FLOPs: 1, OutputBytes: 1})
	g.MustAddEdge(0, 1, 1)
	if err := (Partition{0, mcm.MaxChips}).Validate(g, 2*mcm.MaxChips); !errors.Is(err, ErrChipRange) {
		t.Fatalf("chip %d of %d: %v, want ErrChipRange", mcm.MaxChips, 2*mcm.MaxChips, err)
	}
	if err := (Partition{0, 1}).Validate(g, 2*mcm.MaxChips); err != nil {
		t.Fatalf("low chips under a large chip count: %v", err)
	}
}
