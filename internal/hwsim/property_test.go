package hwsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
)

func propGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New("prop")
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{
			Op:          graph.OpMatMul,
			FLOPs:       float64(1+rng.Intn(100)) * 1e7,
			ParamBytes:  int64(rng.Intn(1 << 19)),
			OutputBytes: int64(1 + rng.Intn(1<<16)),
		})
		if i > 0 {
			g.MustAddEdge(i-1, i, int64(1+rng.Intn(1<<14)))
		}
	}
	return g
}

// TestSimulatorDeterminism: Evaluate is a pure function of (graph,
// partition); Measure is a pure function of (graph, partition, run, seed).
func TestSimulatorDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := propGraph(rng, 6+rng.Intn(20))
		pkg := mcm.Dev8()
		sim := New(pkg, Options{Seed: seed})
		sg, err := cpsolver.NewSegmenter(g, pkg.Chips)
		if err != nil {
			return false
		}
		p, err := sg.Sample(nil, nil, rng)
		if err != nil {
			return false
		}
		a, b := sim.Evaluate(g, p), sim.Evaluate(g, p)
		if a.Valid != b.Valid || a.Interval != b.Interval {
			return false
		}
		m1, m2 := sim.Measure(g, p, 3), sim.Measure(g, p, 3)
		return m1.Throughput == m2.Throughput
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulatorInvalidIsZeroThroughput: the paper's platform contract —
// invalid partitions always report exactly zero throughput.
func TestSimulatorInvalidIsZeroThroughput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New("fat")
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e9,
			ParamBytes: int64(20+rng.Intn(100)) << 20, OutputBytes: 1})
		sim := New(mcm.Dev4(), Options{Seed: seed}) // 8 MiB SRAM
		res := sim.Measure(g, partition.Partition{0}, rng.Intn(5))
		return !res.Valid && res.Throughput == 0 && res.Interval == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulatorIntervalBounds: the pipeline interval is at least the
// busiest chip's compute time and at least the busiest link's transfer
// time (the bottleneck defines the interval).
func TestSimulatorIntervalBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := propGraph(rng, 8+rng.Intn(20))
		pkg := mcm.Dev8()
		sim := New(pkg, Options{Seed: seed})
		sg, err := cpsolver.NewSegmenter(g, pkg.Chips)
		if err != nil {
			return false
		}
		p, err := sg.Sample(nil, nil, rng)
		if err != nil {
			return false
		}
		res := sim.Evaluate(g, p)
		if !res.Valid {
			return true // OOM verdicts are covered elsewhere
		}
		for _, busy := range res.ChipBusy {
			if res.Interval < busy-1e-15 {
				return false
			}
		}
		for _, busy := range res.LinkBusy {
			if res.Interval < busy-1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryPressureSlowsButNeverSpeeds: raising a chip's utilization past
// the knee must never decrease its reported interval.
func TestMemoryPressureSlowsButNeverSpeeds(t *testing.T) {
	pkg := mcm.Dev4()
	mk := func(params int64) Result {
		g := graph.New("p")
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e9, ParamBytes: params, OutputBytes: 1 << 10})
		sim := New(pkg, Options{})
		return sim.Evaluate(g, partition.Partition{0})
	}
	light := mk(1 << 20) // ~12% utilization
	heavy := mk(7 << 20) // ~88% utilization: past the knee
	if !light.Valid || !heavy.Valid {
		t.Fatal("both configurations should fit")
	}
	if heavy.Interval <= light.Interval {
		t.Fatalf("pressure should slow the chip: light %v vs heavy %v", light.Interval, heavy.Interval)
	}
}
