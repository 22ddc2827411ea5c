package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/partition"
	"mcmpart/internal/randgraph"
	"mcmpart/internal/workload"
)

// TestComputeMatchesReference requires Compute to return what the map-based
// pass returned — every ChipSchedule field, op for op, or the same error —
// on BERT, the corpus, every random family at 1k and 10k nodes and the
// degenerate sizes — in memory of its own, and in one Scratch every pass
// reuses — under partitions a solver could emit (contiguous in
// topological order), partitions it never would (a random chip per node,
// dataflow running backwards, chips left empty) and malformed ones.
func TestComputeMatchesReference(t *testing.T) {
	graphs := append(workload.CorpusGraphs(1)[:12], workload.BERT(), chainGraph(t, 1, 8), chainGraph(t, 2, 8))
	for _, fam := range randgraph.Families() {
		for _, nodes := range []int{1000, 10_000} {
			graphs = append(graphs, randgraph.Generate(randgraph.Config{Family: fam, Nodes: nodes, Seed: 18}))
		}
	}
	rng := rand.New(rand.NewSource(18))
	var shared Scratch // one for every pass: what an earlier, larger pass left must not show
	for _, g := range graphs {
		lay, err := g.Layout()
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		for _, chips := range []int{1, 4, 36} {
			contiguous := make(partition.Partition, n)
			for q, v := range lay.Order {
				contiguous[v] = q * chips / n
			}
			jittered := contiguous.Clone()
			for i := 0; i < n/10+1; i++ {
				v := rng.Intn(n)
				jittered[v] = min(chips-1, jittered[v]+rng.Intn(2))
			}
			scattered := make(partition.Partition, n)
			for v := range scattered {
				scattered[v] = rng.Intn(chips)
			}
			sparse := make(partition.Partition, n)
			for v := range sparse {
				sparse[v] = (chips - 1) * rng.Intn(2)
			}
			outOfRange := scattered.Clone()
			outOfRange[rng.Intn(n)] = chips
			outOfRange[rng.Intn(n)] = -1
			for name, p := range map[string]partition.Partition{
				"contiguous": contiguous, "jittered": jittered, "scattered": scattered, "sparse": sparse,
				"out of range": outOfRange, "short": contiguous[:n-1], "long": append(contiguous.Clone(), 0),
			} {
				want, werr := refCompute(g, p, chips)
				for _, pass := range []struct {
					name    string
					compute func(*graph.Graph, partition.Partition, int) ([]ChipSchedule, error)
				}{{"Compute", Compute}, {"shared Scratch", shared.Compute}} {
					got, gerr := pass.compute(g, p, chips)
					if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
						t.Fatalf("%s/%d chips/%s/%s: error %v, reference %v", g.Name(), chips, name, pass.name, gerr, werr)
					}
					if len(got) != len(want) {
						t.Fatalf("%s/%d chips/%s/%s: %d schedules, reference %d", g.Name(), chips, name, pass.name, len(got), len(want))
					}
					for c := range want {
						if !reflect.DeepEqual(got[c], want[c]) {
							t.Fatalf("%s/%d chips/%s/%s: chip %d:\n got %+v\nwant %+v", g.Name(), chips, name, pass.name, c, got[c], want[c])
						}
					}
				}
			}
		}
	}
}

// TestComputeAllocs: a pass in a Scratch that has held the graph allocates
// nothing — the path the simulator's Assess takes per sample — and one in
// memory of its own (Compute) allocates the schedules, their shared op array
// and three scratch vectors, whatever the graph's size. The map-based pass
// made 397 allocations on this input, the pass before Scratch 5.
func TestComputeAllocs(t *testing.T) {
	g := workload.BERT()
	lay, err := g.Layout()
	if err != nil {
		t.Fatal(err)
	}
	p := make(partition.Partition, g.NumNodes())
	for q, v := range lay.Order {
		p[v] = q * 36 / len(p)
	}
	var sc Scratch
	for name, c := range map[string]struct {
		compute func(*graph.Graph, partition.Partition, int) ([]ChipSchedule, error)
		ceiling float64
	}{"Scratch.Compute": {sc.Compute, 0}, "Compute": {Compute, 5}} {
		if _, err := c.compute(g, p, 36); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := c.compute(g, p, 36); err != nil {
				t.Fatal(err)
			}
		}); allocs > c.ceiling {
			t.Errorf("%s allocates %v times per call, ceiling %v", name, allocs, c.ceiling)
		}
	}
}
