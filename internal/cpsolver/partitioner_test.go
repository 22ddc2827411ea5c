package cpsolver

import (
	"math/rand"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/partition"
)

// TestNewAutoPkgBoundsChipsBySRAM: on a heterogeneous package NewAutoPkg
// bounds each chip's weights by its own SRAM, in both backends. Each graph
// is a chain holding one node whose 12 MiB of weights fit het4's two 16 MiB
// dies and neither 8 MiB one; unbounded, a quarter of uniform layouts put it
// on a little die.
func TestNewAutoPkgBoundsChipsBySRAM(t *testing.T) {
	pkg := mcm.Het4()
	for _, tc := range []struct {
		nodes    int
		segments bool // NewAutoPkg picks the segment sampler, else the CP solver
	}{
		{AutoThreshold, false},
		{3 * AutoThreshold, true},
	} {
		g := graph.New("heavy-chain")
		for i := 0; i < tc.nodes; i++ {
			w := int64(16 << 10)
			if i == tc.nodes*3/10 {
				w = 12 << 20
			}
			g.AddNode(graph.Node{FLOPs: 1e6, ParamBytes: w, OutputBytes: 64})
			if i > 0 {
				g.MustAddEdge(i-1, i, 64)
			}
		}
		part, err := NewAutoPkg(g, pkg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := part.(*Segmenter); ok != tc.segments {
			t.Fatalf("%d nodes: NewAutoPkg returned a %T", tc.nodes, part)
		}
		check := func(mode string, p partition.Partition, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%d nodes, %s: %v", tc.nodes, mode, err)
			}
			if err := p.ValidateOn(g, pkg); err != nil {
				t.Fatalf("%d nodes, %s: %v", tc.nodes, mode, err)
			}
			used := make([]int64, pkg.Chips)
			for v, c := range p {
				used[c] += g.Node(v).ParamBytes
			}
			for c, b := range used {
				if b > pkg.ChipSRAM(c) {
					t.Fatalf("%d nodes, %s: chip %d holds %d bytes of weights, SRAM %d", tc.nodes, mode, c, b, pkg.ChipSRAM(c))
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(tc.nodes)))
		probs := make([][]float64, tc.nodes)
		for i := 0; i < 20; i++ {
			p, err := part.SampleMode(nil, rng)
			check("uniform SampleMode", p, err)
			for v := range probs {
				probs[v] = make([]float64, pkg.Chips)
				var sum float64
				for c := range probs[v] {
					probs[v][c] = rng.Float64() + 1e-3
					sum += probs[v][c]
				}
				for c := range probs[v] {
					probs[v][c] /= sum
				}
			}
			p, err = part.SampleMode(probs, rng)
			check("SampleMode", p, err)
			// A policy's proposal: the last sample with a tenth of its
			// nodes moved to a random chip.
			hint := append([]int(nil), p...)
			for v := range hint {
				if rng.Intn(10) == 0 {
					hint[v] = rng.Intn(pkg.Chips)
				}
			}
			p, err = part.FixMode(hint, rng)
			check("FixMode", p, err)
		}
	}
}
