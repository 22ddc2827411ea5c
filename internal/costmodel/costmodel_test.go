package costmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("g")
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{Op: graph.OpMatMul, FLOPs: 1e9, OutputBytes: 1 << 20})
		if i > 0 {
			g.MustAddEdge(i-1, i, 1<<20)
		}
	}
	return g
}

func TestLatencySingleChip(t *testing.T) {
	pkg := mcm.Dev4()
	m := New(pkg)
	g := testGraph(t)
	p := partition.Partition{0, 0, 0, 0}
	want := pkg.ComputeTimeOn(0, 4e9)
	if got := m.Latency(g, p); got != want {
		t.Fatalf("Latency = %v, want %v", got, want)
	}
}

func TestLatencyIsMaxOverChips(t *testing.T) {
	pkg := mcm.Dev4()
	m := New(pkg)
	g := testGraph(t)
	balanced := m.Latency(g, partition.Partition{0, 0, 1, 1})
	skewed := m.Latency(g, partition.Partition{0, 1, 1, 1})
	if balanced >= skewed {
		t.Fatalf("balanced %v should beat skewed %v", balanced, skewed)
	}
	// Balanced 2-chip should roughly halve the single-chip latency (plus
	// one transfer).
	single := m.Latency(g, partition.Partition{0, 0, 0, 0})
	if balanced >= single {
		t.Fatalf("2 chips %v should beat 1 chip %v", balanced, single)
	}
}

func TestCommunicationCharged(t *testing.T) {
	pkg := mcm.Dev4()
	m := New(pkg)
	g := graph.New("comm")
	g.AddNode(graph.Node{FLOPs: 1e9, OutputBytes: 1 << 24})
	g.AddNode(graph.Node{FLOPs: 1e9, OutputBytes: 1})
	g.MustAddEdge(0, 1, 1<<24)
	near := m.Latency(g, partition.Partition{0, 1})
	far := m.Latency(g, partition.Partition{0, 3})
	if far <= near {
		t.Fatalf("3-hop transfer %v should cost more than 1-hop %v", far, near)
	}
	hops, _ := pkg.PathHops(0, 1)
	expect := pkg.ComputeTimeOn(0, 1e9) + pkg.HopTransferTime(hops, 1<<24)
	if diff := near - expect; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("near latency = %v, want %v", near, expect)
	}
}

func TestThroughputReciprocal(t *testing.T) {
	m := New(mcm.Dev4())
	g := testGraph(t)
	p := partition.Partition{0, 0, 1, 1}
	l := m.Latency(g, p)
	if got := m.Throughput(g, p); got != 1/l {
		t.Fatalf("Throughput = %v, want %v", got, 1/l)
	}
	if v := m.Assess(g, p); !v.Valid || v.Throughput != 1/l {
		t.Fatalf("Assess = (%v,%v)", v.Throughput, v.Valid)
	}
}

// TestMonotonicityProperty: adding work to the bottleneck chip never
// decreases latency.
func TestMonotonicityProperty(t *testing.T) {
	pkg := mcm.Dev8()
	m := New(pkg)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		g := graph.New("rand")
		for i := 0; i < n; i++ {
			g.AddNode(graph.Node{FLOPs: float64(1+rng.Intn(100)) * 1e8, OutputBytes: int64(rng.Intn(1 << 20))})
			if i > 0 {
				g.MustAddEdge(i-1, i, int64(rng.Intn(1<<20)))
			}
		}
		p := make(partition.Partition, n)
		chip := 0
		for i := range p {
			p[i] = chip
			if chip < pkg.Chips-1 && rng.Intn(3) == 0 {
				chip++
			}
		}
		before := m.Latency(g, p)
		// Double every node's FLOPs: latency must not decrease.
		g2 := graph.New("rand2")
		for i := 0; i < n; i++ {
			node := g.Node(i)
			node.FLOPs *= 2
			node.ID = 0
			g2.AddNode(node)
			if i > 0 {
				g2.MustAddEdge(i-1, i, g.Edge(i-1).Bytes)
			}
		}
		return m.Latency(g2, p) >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
