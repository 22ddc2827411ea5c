package cpsolver

import (
	"math/rand"
	"testing"

	"mcmpart/internal/partition"
	"mcmpart/internal/workload"
)

// allocSink defeats dead-code elimination in the AllocsPerRun bodies.
var allocSink int

// TestDomainForEachZeroAlloc pins the zero-allocation contract of the hot
// iteration form: Values() builds a slice per call, ForEach must not.
func TestDomainForEachZeroAlloc(t *testing.T) {
	d := Domain(0b1011010110)
	allocs := testing.AllocsPerRun(200, func() {
		sum := 0
		d.ForEach(func(c int) bool {
			sum += c
			return true
		})
		allocSink = sum
	})
	if allocs != 0 {
		t.Fatalf("Domain.ForEach allocated %.1f objects/op, want 0", allocs)
	}
}

func TestDomainForEachOrderAndEarlyStop(t *testing.T) {
	d := Domain(0b101101)
	var got []int
	d.ForEach(func(c int) bool {
		got = append(got, c)
		return true
	})
	want := d.Values()
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, Values %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, Values %v", got, want)
		}
	}
	visits := 0
	d.ForEach(func(c int) bool {
		visits++
		return visits < 2
	})
	if visits != 2 {
		t.Fatalf("early stop visited %d chips, want 2", visits)
	}
}

// TestSampleValueZeroAlloc pins the solver's value-sampling path (the inner
// loop of every Sample/Fix solve) to zero allocations.
func TestSampleValueZeroAlloc(t *testing.T) {
	g := chain(t, 40)
	s, err := New(g, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	row := make([]float64, 8)
	for i := range row {
		row[i] = 1.0 / 8
	}
	allocs := testing.AllocsPerRun(200, func() {
		allocSink = s.sampleValue(rng, row, 20)
	})
	if allocs != 0 {
		t.Fatalf("sampleValue allocated %.1f objects/op, want 0", allocs)
	}
}

// TestAssignResetSteadyStateAllocs pins the decide/propagate/undo cycle —
// the loop a solve spends its life in — to zero steady-state allocations:
// the trail, decision stack, and propagation queue must reuse their
// capacity across Reset.
func TestAssignResetSteadyStateAllocs(t *testing.T) {
	g := chain(t, 60)
	s, err := New(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := s.lay.Order
	cycle := func() {
		s.Reset()
		i := 0
		for i < len(order) {
			u := order[i]
			n, err := s.Assign(u, s.doms[u].Min())
			if err != nil {
				t.Fatal(err)
			}
			i = n
		}
	}
	cycle() // warm-up: grow trail/decisions/queue to steady capacity
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs != 0 {
		t.Fatalf("Assign/Reset cycle allocated %.1f objects/op after warm-up, want 0", allocs)
	}
}

// TestSegmenterSampleSteadyStateAllocs: after the first calls of each kind
// have sized the scratch (the DP rows; a slot's weights and matrix; the term
// memo on the first build that shares an entry with its slot), a Sample or
// a Fit allocates exactly one object — the partition it returns — whether
// it draws from stored weights or builds them. The defense-in-depth
// Validate of every emitted partition is part of that call and allocates
// nothing on a valid partition. Fit and uniform calls never allocate a
// slot's matrix.
func TestSegmenterSampleSteadyStateAllocs(t *testing.T) {
	g := chain(t, 400)
	rng := rand.New(rand.NewSource(2))
	matrices := make([][][]float64, 3)
	for i := range matrices {
		probs, flat := probMatrix(400, 8)
		for j := range flat {
			flat[j] = rng.Float64()
		}
		matrices[i] = probs
	}
	// moved is matrices[0] with one entry changed: built in place, through
	// the memo.
	moved, flat := probMatrix(400, 8)
	for i, row := range matrices[0] {
		copy(moved[i], row)
	}
	flat[17] /= 2
	hint := make([]int, 400)
	for i := range hint {
		hint[i] = rng.Intn(8)
	}
	calls := map[string]func(sg *Segmenter, i int) (partition.Partition, error){
		"Sample(nil)":         func(sg *Segmenter, _ int) (partition.Partition, error) { return sg.Sample(nil, rng) },
		"Sample(matrix)":      func(sg *Segmenter, _ int) (partition.Partition, error) { return sg.Sample(matrices[0], rng) },
		"Sample(alternating)": func(sg *Segmenter, i int) (partition.Partition, error) { return sg.Sample(matrices[i%2], rng) },
		"Sample(new matrix)":  func(sg *Segmenter, i int) (partition.Partition, error) { return sg.Sample(matrices[i%3], rng) },
		"Sample(one entry changed)": func(sg *Segmenter, i int) (partition.Partition, error) {
			return sg.Sample([][][]float64{matrices[0], moved}[i%2], rng)
		},
		"Fit": func(sg *Segmenter, _ int) (partition.Partition, error) { return sg.Fit(hint, rng) },
	}
	for name, call := range calls {
		sg, err := NewSegmenter(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		next := func() {
			p, err := call(sg, i)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			i++
			allocSink = p[len(p)-1]
		}
		for range 3 { // warm-up
			next()
		}
		if allocs := testing.AllocsPerRun(20, next); allocs != 1 {
			t.Fatalf("%s allocated %.1f objects/op after warm-up, want 1 (the partition)", name, allocs)
		}
		if name == "Fit" || name == "Sample(nil)" {
			if sg.slots[0].val != nil || sg.slots[1].val != nil {
				t.Fatalf("%s allocated a slot's matrix", name)
			}
		}
	}
}

// TestNewSegmenterWarmAllocs: on a graph whose layout is already memoized —
// every PartFactory replica a rollout worker builds, every plan after
// Validate — a Segmenter is one struct around the shared arrays. Before the
// layout had an owner each one ran Kahn's algorithm twice (once under
// Validate), inverted the order and swept the edges: 7 507 allocations on
// BERT.
func TestNewSegmenterWarmAllocs(t *testing.T) {
	g := workload.BERT()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	const ceiling = 1 // the Segmenter
	allocs := testing.AllocsPerRun(20, func() {
		sg, err := NewSegmenter(g, 36)
		if err != nil {
			t.Fatal(err)
		}
		allocSink = sg.LayoutChips()
	})
	if allocs > ceiling {
		t.Fatalf("NewSegmenter on a warm graph allocated %.1f objects, want <= %d", allocs, ceiling)
	}
}
