package mcmpart

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"mcmpart/internal/costmodel"
	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/hwsim"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
	"mcmpart/internal/search"
	"mcmpart/internal/workload"
)

// backcompatGolden pins one (preset, graph) pair's outputs to the exact
// values the pre-topology code produced (captured at the commit before the
// Topology/heterogeneity refactor). Float64s are compared as raw bits:
// "bit-identical" is the contract, not "close".
type backcompatGolden struct {
	pkgName, graphName string
	greedyHash         uint64 // FNV-64a over the greedy partition
	greedyLatBits      uint64 // costmodel.Latency(greedy)
	simValid           bool   // hwsim Evaluate(greedy).Valid (Seed 7)
	simIntervalBits    uint64 // hwsim Evaluate(greedy).Interval
	simLinkSumBits     uint64 // sum of Evaluate(greedy).LinkBusy
	sampleHash         uint64 // SampleMode partition, rng seed 42
	sampleLatBits      uint64 // costmodel.Latency(sample)
	sampleSimValid     bool
	sampleIntervalBits uint64
}

// backcompatGoldens were captured by running greedy, the analytical model,
// the hardware simulator, and one seeded solver sample on every preset at
// the last pre-refactor commit. They pin that dev4/dev8/edge36 on the
// default uni-directional ring stay byte-for-byte reproducible through the
// costmodel, hwsim, and solver layers.
var backcompatGoldens = []backcompatGolden{
	{"dev4", "train0", 9049743757526993318, 0x3fa2b763ddb6b132, false, 0, 0, 2281948648204045220, 0x3f968c837f0a37a7, false, 0},
	{"dev8", "train0", 9515695107100437284, 0x3f7670c189e93302, false, 0, 0, 7608162308044683684, 0x3f83fb32a62538ed, false, 0},
	{"edge36", "train0", 15406877705714322980, 0x3f851ea005fb93a6, true, 0x3f88f4c0bc001848, 0x3ef9ab4cca5e079e, 5003528642126932465, 0x3f641303f64c75b9, true, 0x3f675fc76bf53eef},
	{"dev4", "test0", 10833498989129922055, 0x3facbd44a791d2b1, false, 0, 0, 13966914501390211173, 0x3f994e9269694ceb, false, 0},
	{"dev8", "test0", 16568854066880853060, 0x3f75147c04e70db3, false, 0, 0, 4065708830383170147, 0x3f88ee628f462c31, false, 0},
	{"edge36", "test0", 17657011021920490084, 0x3f8f2d44dd9f2d47, true, 0x3f9273aa7a9d1420, 0x3ef346eadc3d9447, 12191970112149665337, 0x3f6459d504e127d1, true, 0x3f67746513d8a0be},
	{"edge36", "bert", 14882221997265238923, 0x3f6ad5b14ac8371f, true, 0x3f71537450489b1a, 0x3f556fdc6478024f, 9512465940219290639, 0x3f6ab029d4071c8d, true, 0x3f704a53fe63e1f4},
}

func hashPartition(p partition.Partition) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range p {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(c) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestBackCompatRingPresetsBitIdentical is the refactor's back-compat gate:
// every pre-existing preset on the default uni-directional ring must produce
// bit-identical greedy partitions, cost-model latencies, simulator results,
// and solver samples.
func TestBackCompatRingPresetsBitIdentical(t *testing.T) {
	ds := workload.Corpus(1)
	graphs := map[string]*graph.Graph{
		"train0": ds.Train[0],
		"test0":  ds.Test[0],
		"bert":   workload.BERT(),
	}
	for _, gold := range backcompatGoldens {
		pkg, err := mcm.Preset(gold.pkgName)
		if err != nil {
			t.Fatal(err)
		}
		g := graphs[gold.graphName]
		name := gold.pkgName + "/" + gold.graphName

		greedy := search.GreedyPackage(g, pkg)
		if h := hashPartition(greedy); h != gold.greedyHash {
			t.Errorf("%s: greedy partition hash %d, want %d", name, h, gold.greedyHash)
		}
		if bits := math.Float64bits(costmodel.New(pkg).Latency(g, greedy)); bits != gold.greedyLatBits {
			t.Errorf("%s: greedy latency bits %016x, want %016x", name, bits, gold.greedyLatBits)
		}
		sim := hwsim.New(pkg, hwsim.Options{Seed: 7})
		res := sim.Evaluate(g, greedy)
		if res.Valid != gold.simValid {
			t.Errorf("%s: simulator validity %t, want %t (%s)", name, res.Valid, gold.simValid, res.FailReason)
		}
		if bits := math.Float64bits(res.Interval); bits != gold.simIntervalBits {
			t.Errorf("%s: simulator interval bits %016x, want %016x", name, bits, gold.simIntervalBits)
		}
		var linkSum float64
		for _, l := range res.LinkBusy {
			linkSum += l
		}
		if bits := math.Float64bits(linkSum); bits != gold.simLinkSumBits {
			t.Errorf("%s: link-busy sum bits %016x, want %016x", name, bits, gold.simLinkSumBits)
		}

		pr, err := cpsolver.NewAutoPkg(g, pkg, cpsolver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := pr.SampleMode(nil, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatalf("%s: sample: %v", name, err)
		}
		if h := hashPartition(sp); h != gold.sampleHash {
			t.Errorf("%s: solver sample hash %d, want %d", name, h, gold.sampleHash)
		}
		if bits := math.Float64bits(costmodel.New(pkg).Latency(g, sp)); bits != gold.sampleLatBits {
			t.Errorf("%s: sample latency bits %016x, want %016x", name, bits, gold.sampleLatBits)
		}
		spres := sim.Evaluate(g, sp)
		if spres.Valid != gold.sampleSimValid {
			t.Errorf("%s: sample sim validity %t, want %t", name, spres.Valid, gold.sampleSimValid)
		}
		if bits := math.Float64bits(spres.Interval); bits != gold.sampleIntervalBits {
			t.Errorf("%s: sample sim interval bits %016x, want %016x", name, bits, gold.sampleIntervalBits)
		}
	}
}

// TestNewPresetsEndToEnd pins that the heterogeneous and non-ring presets
// work through the full Planner.Plan pipeline (the library form of
// `mcmpart -mcm het4` / `-mcm mesh16`), simulator evaluation included.
func TestNewPresetsEndToEnd(t *testing.T) {
	ds := workload.Corpus(1)
	var fits *graph.Graph
	for _, g := range ds.Train {
		if g.Name() == "chaincnn-10" {
			fits = g
		}
	}
	if fits == nil {
		t.Fatal("corpus graph chaincnn-10 missing")
	}
	cases := []struct {
		pkg *mcm.Package
		g   *graph.Graph
	}{
		{mcm.Het4(), fits},
		{mcm.Mesh16(), fits},
		{mcm.Dev8Bi(), fits},
	}
	for _, c := range cases {
		pl, err := NewPlanner(c.pkg)
		if err != nil {
			t.Errorf("%s: %v", c.pkg.Name, err)
			continue
		}
		res, err := pl.Plan(context.Background(), c.g, PlanOptions{
			Method:       MethodRandom,
			SampleBudget: 25,
			Seed:         3,
			UseSimulator: true,
		})
		if err != nil {
			t.Errorf("%s: %v", c.pkg.Name, err)
			continue
		}
		if res.Improvement <= 0 {
			t.Errorf("%s: no improvement found", c.pkg.Name)
		}
		if err := Validate(c.g, c.pkg, res.Partition); err != nil {
			t.Errorf("%s: emitted invalid partition: %v", c.pkg.Name, err)
		}
		if hw := Evaluate(c.g, c.pkg, res.Partition); !hw.Valid {
			t.Errorf("%s: best partition fails on hardware: %s", c.pkg.Name, hw.FailReason)
		}
	}
}
