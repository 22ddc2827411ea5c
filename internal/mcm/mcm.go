// Package mcm describes the target hardware: a multi-chip-module (MCM)
// package of accelerator chiplets joined by an inter-chip interconnect. The
// paper's platform is a package of identical dies on a uni-directional ring
// (Dasari et al., US patent 10,936,942) and remains the default; the
// descriptor also models heterogeneous chiplets (per-chip SRAM and compute
// arrays, big/little dies as in Odema et al.'s heterogeneous-chiplet
// scheduling work) and pluggable interconnect topologies (bidirectional
// ring, 2D mesh) behind the Topology abstraction.
//
// The descriptor exposes exactly the quantities the paper's formulation and
// cost models depend on: the number of chips C (the action space of the
// partitioner), per-chip SRAM (the dynamic memory constraint), per-chip
// compute rate, and link bandwidth/latency (inter-chip communication cost).
// The real hardware is proprietary; every experiment in this repository runs
// against this descriptor plus the simulator in internal/hwsim.
//
//mcmlint:deterministic
package mcm

import (
	"encoding/json"
	"fmt"
	"os"
)

// Package describes an MCM accelerator package.
type Package struct {
	// Name labels the configuration, e.g. "edge36".
	Name string `json:"name"`
	// Chips is the number of chiplets C. Chip IDs are 0..Chips-1; pipeline
	// stages are still numbered in dataflow order regardless of topology.
	Chips int `json:"chips"`
	// SRAMBytes is the on-chip memory of each chiplet when the package is
	// homogeneous. Weights of the ops placed on a chip plus live
	// activations must fit in it. ChipSRAMBytes overrides it per chip.
	SRAMBytes int64 `json:"sram_bytes"`
	// PeakFLOPs is each chiplet's peak compute rate in FLOP/s when the
	// package is homogeneous. ChipPeakFLOPs overrides it per chip.
	PeakFLOPs float64 `json:"peak_flops"`
	// LinkBandwidth is the bandwidth of each inter-chip link in bytes/s.
	LinkBandwidth float64 `json:"link_bandwidth"`
	// LinkLatency is the fixed per-hop transfer latency in seconds.
	LinkLatency float64 `json:"link_latency"`

	// ChipSRAMBytes, when non-empty, gives each chiplet its own SRAM size
	// (length must equal Chips). Heterogeneous packages model big/little
	// dies; chips without an entry do not exist.
	ChipSRAMBytes []int64 `json:"chip_sram_bytes,omitempty"`
	// ChipPeakFLOPs, when non-empty, gives each chiplet its own peak
	// compute rate (length must equal Chips).
	ChipPeakFLOPs []float64 `json:"chip_peak_flops,omitempty"`
	// Topology selects the interconnect; empty means TopoRing, the paper's
	// uni-directional ring, which keeps pre-topology package JSON and all
	// existing presets bit-identical.
	Topology TopologyKind `json:"topology,omitempty"`
	// MeshRows is the row count of a TopoMesh package (columns are
	// Chips/MeshRows). It must be zero for other topologies.
	MeshRows int `json:"mesh_rows,omitempty"`
}

// Validate checks that the package parameters are physically meaningful.
func (p *Package) Validate() error {
	switch {
	case p.Chips <= 0:
		return fmt.Errorf("mcm: package %q has %d chips", p.Name, p.Chips)
	case p.Chips > MaxChips:
		return fmt.Errorf("mcm: package %q has %d chips; the solver supports at most %d", p.Name, p.Chips, MaxChips)
	case len(p.ChipSRAMBytes) == 0 && p.SRAMBytes <= 0:
		return fmt.Errorf("mcm: package %q has non-positive SRAM", p.Name)
	case len(p.ChipPeakFLOPs) == 0 && p.PeakFLOPs <= 0:
		return fmt.Errorf("mcm: package %q has non-positive compute rate", p.Name)
	case p.LinkBandwidth <= 0:
		return fmt.Errorf("mcm: package %q has non-positive link bandwidth", p.Name)
	case p.LinkLatency < 0:
		return fmt.Errorf("mcm: package %q has negative link latency", p.Name)
	}
	if n := len(p.ChipSRAMBytes); n != 0 {
		if n != p.Chips {
			return fmt.Errorf("mcm: package %q has %d per-chip SRAM entries for %d chips", p.Name, n, p.Chips)
		}
		for c, b := range p.ChipSRAMBytes {
			if b <= 0 {
				return fmt.Errorf("mcm: package %q chip %d has non-positive SRAM", p.Name, c)
			}
		}
	}
	if n := len(p.ChipPeakFLOPs); n != 0 {
		if n != p.Chips {
			return fmt.Errorf("mcm: package %q has %d per-chip compute entries for %d chips", p.Name, n, p.Chips)
		}
		for c, f := range p.ChipPeakFLOPs {
			if f <= 0 {
				return fmt.Errorf("mcm: package %q chip %d has non-positive compute rate", p.Name, c)
			}
		}
	}
	if p.Topology != TopoMesh && p.MeshRows != 0 {
		return fmt.Errorf("mcm: package %q sets mesh_rows=%d but topology is %q", p.Name, p.MeshRows, p.TopologyKind())
	}
	if _, err := p.Topo(); err != nil {
		return fmt.Errorf("mcm: package %q: %w", p.Name, err)
	}
	return nil
}

// MaxChips is the largest chip count supported by the constraint solver's
// bitset domains.
const MaxChips = 64

// TopologyKind returns the package's topology with the empty value
// normalized to the default uni-directional ring.
func (p *Package) TopologyKind() TopologyKind {
	if p.Topology == "" {
		return TopoRing
	}
	return p.Topology
}

// Topo returns the routing arithmetic for the package's interconnect.
func (p *Package) Topo() (Topology, error) {
	return NewTopology(p.Topology, p.Chips, p.MeshRows)
}

// Heterogeneous reports whether the package models chiplets with unequal
// SRAM or compute.
func (p *Package) Heterogeneous() bool {
	return len(p.ChipSRAMBytes) != 0 || len(p.ChipPeakFLOPs) != 0
}

// ChipSRAM returns chip c's SRAM size in bytes.
func (p *Package) ChipSRAM(c int) int64 {
	if len(p.ChipSRAMBytes) != 0 {
		return p.ChipSRAMBytes[c]
	}
	return p.SRAMBytes
}

// ChipFLOPs returns chip c's peak compute rate in FLOP/s.
func (p *Package) ChipFLOPs(c int) float64 {
	if len(p.ChipPeakFLOPs) != 0 {
		return p.ChipPeakFLOPs[c]
	}
	return p.PeakFLOPs
}

// MinChipSRAM returns the smallest chiplet SRAM in the package.
func (p *Package) MinChipSRAM() int64 {
	min := p.ChipSRAM(0)
	for c := 1; c < p.Chips; c++ {
		if s := p.ChipSRAM(c); s < min {
			min = s
		}
	}
	return min
}

// MaxChipFLOPs returns the fastest chiplet's peak rate in the package.
func (p *Package) MaxChipFLOPs() float64 {
	max := p.ChipFLOPs(0)
	for c := 1; c < p.Chips; c++ {
		if f := p.ChipFLOPs(c); f > max {
			max = f
		}
	}
	return max
}

// PathHops returns the hop count of a src->dst transfer and whether the
// topology admits such a route at all. It never panics; the evaluation
// environments use it so that illegal transfers surface as invalid
// partitions rather than crashes.
func (p *Package) PathHops(src, dst int) (int, bool) {
	topo, err := p.Topo()
	if err != nil {
		return 0, false
	}
	return topo.Hops(src, dst)
}

// HopTransferTime returns the transfer time of the given payload over a
// route of the given hop count (0 hops or 0 bytes are free). The cost model
// and simulator share this formula so their per-link prices agree.
func (p *Package) HopTransferTime(hops int, bytes int64) float64 {
	if hops == 0 || bytes == 0 {
		return 0
	}
	return float64(hops) * (p.LinkLatency + float64(bytes)/p.LinkBandwidth)
}

// ComputeTimeOn returns the ideal time to execute the given amount of work
// on chip c at its peak rate.
func (p *Package) ComputeTimeOn(c int, flops float64) float64 {
	return flops / p.ChipFLOPs(c)
}

// String summarizes the package for logs.
func (p *Package) String() string {
	sram := p.SRAMBytes
	flops := p.PeakFLOPs
	het := ""
	if p.Heterogeneous() {
		sram = p.MinChipSRAM()
		flops = p.MaxChipFLOPs()
		het = " het"
	}
	topo := ""
	if k := p.TopologyKind(); k != TopoRing {
		topo = " " + string(k)
	}
	return fmt.Sprintf("%s(chips=%d sram=%dMiB peak=%.0fGFLOP/s link=%.0fGB/s%s%s)",
		p.Name, p.Chips, sram>>20, flops/1e9, p.LinkBandwidth/1e9, het, topo)
}

// ParseJSON deserializes and validates a package descriptor. Descriptors
// written before heterogeneity and topologies existed parse to the same
// behavior as ever: missing per-chip arrays mean homogeneous chips and a
// missing topology means the uni-directional ring.
func ParseJSON(data []byte) (*Package, error) {
	p := new(Package)
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("mcm: parsing package: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Edge36 returns the default 36-chiplet package modeled on the paper's
// evaluation platform: 36 dies on a uni-directional ring, tens of MiB of
// SRAM per die, and tens of GB/s of link bandwidth.
func Edge36() *Package {
	return &Package{
		Name:      "edge36",
		Chips:     36,
		SRAMBytes: 76 << 20, // 76 MiB (tens of MBs; calibrated so the
		// hardware-invalid rate of random valid partitions matches the
		// paper's Sec. 5.4 measurement, see DESIGN.md)
		PeakFLOPs:     4e12, // 4 TFLOP/s per die (edge-TPU class)
		LinkBandwidth: 32e9, // 32 GB/s
		LinkLatency:   1e-6, // 1 us per hop
	}
}

// Dev4 returns a small 4-chip package matching Figure 2's running example.
// It is the default for tests and the quickstart example.
func Dev4() *Package {
	return &Package{
		Name:          "dev4",
		Chips:         4,
		SRAMBytes:     8 << 20,
		PeakFLOPs:     1e12,
		LinkBandwidth: 16e9,
		LinkLatency:   1e-6,
	}
}

// Dev8 returns an 8-chip package for mid-size tests and examples.
func Dev8() *Package {
	return &Package{
		Name:          "dev8",
		Chips:         8,
		SRAMBytes:     16 << 20,
		PeakFLOPs:     2e12,
		LinkBandwidth: 24e9,
		LinkLatency:   1e-6,
	}
}

// Het4 returns a heterogeneous 4-chip big/little package on the default
// ring: two big dies (16 MiB, 2 TFLOP/s) feed two little dies (8 MiB,
// 1 TFLOP/s), the unequal-chiplet scenario of Odema et al.'s scheduling
// space exploration.
func Het4() *Package {
	return &Package{
		Name:          "het4",
		Chips:         4,
		ChipSRAMBytes: []int64{16 << 20, 16 << 20, 8 << 20, 8 << 20},
		ChipPeakFLOPs: []float64{2e12, 2e12, 1e12, 1e12},
		LinkBandwidth: 16e9,
		LinkLatency:   1e-6,
	}
}

// Dev8Bi returns the dev8 package rewired as a bidirectional ring with
// wraparound: same dies, twice the links, transfers take the shorter
// direction.
func Dev8Bi() *Package {
	p := Dev8()
	p.Name = "dev8bi"
	p.Topology = TopoBiRing
	return p
}

// Mesh16 returns a 16-chip 4x4 2D-mesh package with dimension-ordered
// routing, the interconnect class of Simba-style MCM accelerators.
func Mesh16() *Package {
	return &Package{
		Name:          "mesh16",
		Chips:         16,
		SRAMBytes:     16 << 20,
		PeakFLOPs:     2e12,
		LinkBandwidth: 24e9,
		LinkLatency:   1e-6,
		Topology:      TopoMesh,
		MeshRows:      4,
	}
}

// Presets maps preset names accepted by the CLI tools to constructors.
var Presets = map[string]func() *Package{
	"edge36": Edge36,
	"dev4":   Dev4,
	"dev8":   Dev8,
	"het4":   Het4,
	"dev8bi": Dev8Bi,
	"mesh16": Mesh16,
}

// Preset returns the named preset package or an error listing valid names.
func Preset(name string) (*Package, error) {
	ctor, ok := Presets[name]
	if !ok {
		return nil, fmt.Errorf("mcm: unknown preset %q (valid: dev4, dev8, dev8bi, edge36, het4, mesh16)", name)
	}
	return ctor(), nil
}

// Load resolves a package spec as the CLIs' -mcm flag accepts it: a preset
// name first, then the path of a package JSON descriptor.
func Load(spec string) (*Package, error) {
	pkg, presetErr := Preset(spec)
	if presetErr == nil {
		return pkg, nil
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		// Neither a preset nor a readable file; the preset error carries
		// the authoritative list of valid names.
		return nil, fmt.Errorf("-mcm %q is not a package JSON file (%w); %v", spec, err, presetErr)
	}
	return ParseJSON(data)
}
