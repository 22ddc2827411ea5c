package cpsolver

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
	"mcmpart/internal/workload"
)

func TestSegmenterChainUniform(t *testing.T) {
	g := chain(t, 10)
	sg, err := NewSegmenter(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for i := 0; i < 600; i++ {
		p, err := sg.Sample(nil, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g, 3); err != nil {
			t.Fatalf("invalid partition %v: %v", p, err)
		}
		if slices.Max(p)+1 != 3 {
			t.Fatalf("segmenter should use all chips, got %v", p)
		}
		counts[p.String()]++
	}
	// A 10-node chain on 3 chips has C(9,2) = 36 layouts; uniform
	// sampling should hit a large fraction of them.
	if len(counts) < 25 {
		t.Fatalf("only %d distinct layouts sampled, want >= 25 of 36", len(counts))
	}
}

func TestSegmenterRespectsPolicy(t *testing.T) {
	g := chain(t, 6)
	sg, err := NewSegmenter(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Push the boundary between nodes 2 and 3.
	probs := [][]float64{
		{0.999, 0.001}, {0.999, 0.001}, {0.999, 0.001},
		{0.001, 0.999}, {0.001, 0.999}, {0.001, 0.999},
	}
	rng := rand.New(rand.NewSource(2))
	match := 0
	for i := 0; i < 100; i++ {
		p, err := sg.Sample(nil, probs, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p[2] == 0 && p[3] == 1 {
			match++
		}
	}
	if match < 90 {
		t.Fatalf("policy followed only %d/100 times", match)
	}
}

func TestSegmenterFitKeepsValidHint(t *testing.T) {
	g := chain(t, 8)
	sg, err := NewSegmenter(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	hint := []int{0, 0, 1, 1, 2, 2, 3, 3}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		p, err := sg.Fit(nil, hint, rng)
		if err != nil {
			t.Fatal(err)
		}
		for v := range hint {
			if p[v] != hint[v] {
				t.Fatalf("Fit changed valid hint: %v -> %v", hint, p)
			}
		}
	}
}

func TestSegmenterFitRepairsInvalidHint(t *testing.T) {
	g := skipConn(t)
	// skipConn allows at most 1 boundary (the 0->2 edge spans everything
	// except the final gap), so 2 chips works but the invalid hint
	// {0,1,2} must be repaired.
	sg, err := NewSegmenter(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	p, err := sg.Fit(nil, []int{0, 1, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g, 2); err != nil {
		t.Fatalf("Fit emitted invalid %v: %v", p, err)
	}
}

func TestSegmenterPrefixWhenCapacityShort(t *testing.T) {
	// A 3-node graph with an edge spanning everything admits at most one
	// boundary; on a 3-chip package, layouts fall back to a 2-chip prefix.
	g := skipConn(t)
	sg, err := NewSegmenter(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Chips() != 3 || sg.k != 2 {
		t.Fatalf("Chips=%d layout chips=%d, want 3/2", sg.Chips(), sg.k)
	}
	p, err := sg.Sample(nil, nil, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g, 3); err != nil {
		t.Fatal(err)
	}
	if slices.Max(p)+1 != 2 {
		t.Fatalf("layout should use the 2-chip prefix, got %v", p)
	}
}

func TestSegmenterSingleChip(t *testing.T) {
	g := chain(t, 4)
	sg, err := NewSegmenter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sg.Sample(nil, nil, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p {
		if c != 0 {
			t.Fatalf("single chip layout wrong: %v", p)
		}
	}
}

func TestSegmenterBERTScale(t *testing.T) {
	if testing.Short() {
		t.Skip("BERT graph construction in short mode")
	}
	g := workload.BERT()
	sg, err := NewSegmenter(g, 36)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		p, err := sg.Sample(nil, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g, 36); err != nil {
			t.Fatal(err)
		}
		if used := slices.Max(p) + 1; used != 36 {
			t.Fatalf("sample uses %d chips, want 36", used)
		}
		seen[p.String()] = true
	}
	if len(seen) < 5 {
		t.Fatalf("BERT samples not diverse: %d distinct of 5", len(seen))
	}
}

func TestNewAutoSelectsBySize(t *testing.T) {
	small := chain(t, 10)
	p1, err := NewAutoPkg(small, &mcm.Package{Chips: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p1.(*Solver); !ok {
		t.Fatalf("small graph should get the CP solver, got %T", p1)
	}
	big := graph.New("big")
	for i := 0; i < AutoThreshold+10; i++ {
		big.AddNode(graph.Node{FLOPs: 1, OutputBytes: 1})
		if i > 0 {
			big.MustAddEdge(i-1, i, 1)
		}
	}
	p2, err := NewAutoPkg(big, mcm.Dev4(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p2.(*Segmenter); !ok {
		t.Fatalf("large graph should get the segmenter, got %T", p2)
	}
	// Both implement the Partitioner contract.
	rng := rand.New(rand.NewSource(7))
	for _, pr := range []Partitioner{p1, p2} {
		p, err := pr.SampleMode(nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := partition.Partition(p).Validate(map[bool]*graph.Graph{true: small, false: big}[pr == p1], pr.Chips()); err != nil {
			t.Fatal(err)
		}
		y := make([]int, pr.NumNodes())
		if _, err := pr.FixMode(y, rng); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForwardStopsAtTheWindow: a build writes boundary j's weights at the
// gaps of its window, 0..hi[j], and no others — a matrix, a uniform call and
// a hint alike. On BERT/36 the windows hold 58 254 of the 74 795 entries.
// (40 744 of them are gaps some complete layout puts the boundary at: the
// gaps before a boundary's earliest one are -Inf for finite probabilities,
// but a NaN prefix sum makes them NaN, which the draw reads, so they are
// computed.)
func TestForwardStopsAtTheWindow(t *testing.T) {
	g := workload.BERT()
	const chips = 36
	sg, err := NewSegmenter(g, chips)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	m := n - 1
	window := 0
	for j := 0; j < chips-1; j++ {
		window += int(sg.hi[j]) + 1
	}
	if window != 58_254 || (chips-1)*m != 74_795 {
		t.Fatalf("windows hold %d of %d entries, want 58254 of 74795", window, (chips-1)*m)
	}
	rng := rand.New(rand.NewSource(3))
	probs, flat := probMatrix(n, chips)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	hint := randomHint(rng, n, chips)
	builds := []struct {
		name string
		call func() (partition.Partition, error)
	}{
		{"matrix", func() (partition.Partition, error) { return sg.Sample(nil, probs, rng) }},
		{"uniform", func() (partition.Partition, error) { return sg.Sample(nil, nil, rng) }},
		{"hint", func() (partition.Partition, error) { return sg.Fit(nil, hint, rng) }},
	}
	// Not a NaN: a forward that read past a window would carry a NaN's
	// payload into what it wrote there, and the sentinel would come back.
	sentinel := math.Float64frombits(0x3ff0_5e17_dead_0001)
	for _, b := range builds {
		w := sg.slot().w
		for i := range w {
			w[i] = sentinel
		}
		if _, err := b.call(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if &sg.slot().w[0] != &w[0] {
			t.Fatalf("%s: built in the other slot", b.name)
		}
		for j := 0; j < chips-1; j++ {
			for gap, x := range w[j*m : (j+1)*m] {
				if untouched := math.Float64bits(x) == math.Float64bits(sentinel); untouched != (gap > int(sg.hi[j])) {
					t.Fatalf("%s: weight[%d][%d] untouched %t, window ends at %d", b.name, j, gap, untouched, sg.hi[j])
				}
			}
		}
	}
}
