package mcm

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// topologies under test, with the bounds their Hops must respect.
func testTopologies(t *testing.T) map[string]Topology {
	t.Helper()
	mk := func(kind TopologyKind, chips, rows int) Topology {
		topo, err := NewTopology(kind, chips, rows)
		if err != nil {
			t.Fatalf("NewTopology(%q, %d, %d): %v", kind, chips, rows, err)
		}
		return topo
	}
	return map[string]Topology{
		"ring8":   mk(TopoRing, 8, 0),
		"biring8": mk(TopoBiRing, 8, 0),
		"biring7": mk(TopoBiRing, 7, 0),
		"mesh4x4": mk(TopoMesh, 16, 4),
		"mesh2x3": mk(TopoMesh, 6, 2),
	}
}

func topoChips(topo Topology) int {
	switch v := topo.(type) {
	case uniRing:
		return v.chips
	case biRing:
		return v.chips
	case mesh2D:
		return v.rows * v.cols
	}
	panic("unknown topology")
}

// TestHopsProperties checks, for every topology: Hops(c,c) == 0, routes have
// exactly Hops links with valid indices, the triangle inequality holds
// through any routable midpoint, and symmetric topologies (biring, mesh)
// price both directions equally within their diameter bound.
func TestHopsProperties(t *testing.T) {
	for name, topo := range testTopologies(t) {
		t.Run(name, func(t *testing.T) {
			chips := topoChips(topo)
			diameter := 0
			switch topo.Kind() {
			case TopoRing:
				diameter = chips - 1
			case TopoBiRing:
				diameter = chips / 2
			case TopoMesh:
				m := topo.(mesh2D)
				diameter = (m.rows - 1) + (m.cols - 1)
			}
			for s := 0; s < chips; s++ {
				if h, ok := topo.Hops(s, s); !ok || h != 0 {
					t.Fatalf("Hops(%d,%d) = %d,%t, want 0,true", s, s, h, ok)
				}
				for d := 0; d < chips; d++ {
					h, ok := topo.Hops(s, d)
					route, rok := topo.AppendRoute(nil, s, d)
					if ok != rok {
						t.Fatalf("Hops(%d,%d) ok=%t but route ok=%t", s, d, ok, rok)
					}
					if !ok {
						if topo.Kind() != TopoRing || d >= s {
							t.Fatalf("%s: Hops(%d,%d) unreachable", name, s, d)
						}
						continue
					}
					if h < 0 || h > diameter {
						t.Fatalf("Hops(%d,%d) = %d outside [0,%d]", s, d, h, diameter)
					}
					if len(route) != h {
						t.Fatalf("route(%d,%d) has %d links for %d hops", s, d, len(route), h)
					}
					for _, l := range route {
						if l < 0 || l >= topo.NumLinks() {
							t.Fatalf("route(%d,%d) link %d outside [0,%d)", s, d, l, topo.NumLinks())
						}
					}
					// Symmetry for bidirectional topologies.
					if topo.Kind() != TopoRing {
						back, _ := topo.Hops(d, s)
						if back != h {
							t.Fatalf("Hops(%d,%d)=%d != Hops(%d,%d)=%d", s, d, h, d, s, back)
						}
					}
					// Triangle inequality via every routable midpoint.
					for m := 0; m < chips; m++ {
						h1, ok1 := topo.Hops(s, m)
						h2, ok2 := topo.Hops(m, d)
						if ok1 && ok2 && h > h1+h2 {
							t.Fatalf("triangle violated: Hops(%d,%d)=%d > %d+%d via %d", s, d, h, h1, h2, m)
						}
					}
				}
			}
		})
	}
}

// TestRingHopsMatchLegacyArithmetic pins the default topology to the
// paper's literal dst-src arithmetic and link enumeration.
func TestRingHopsMatchLegacyArithmetic(t *testing.T) {
	topo, err := NewTopology("", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind() != TopoRing {
		t.Fatalf("empty kind normalized to %q, want ring", topo.Kind())
	}
	if topo.NumLinks() != 7 {
		t.Fatalf("ring8 has %d links, want 7", topo.NumLinks())
	}
	for s := 0; s < 8; s++ {
		for d := s; d < 8; d++ {
			h, ok := topo.Hops(s, d)
			if !ok || h != d-s {
				t.Fatalf("Hops(%d,%d) = %d,%t, want %d,true", s, d, h, ok, d-s)
			}
			route, _ := topo.AppendRoute(nil, s, d)
			for i, l := range route {
				if l != s+i {
					t.Fatalf("route(%d,%d) = %v, want consecutive links from %d", s, d, route, s)
				}
			}
		}
		if _, ok := topo.Hops(s+1, s); ok {
			t.Fatalf("backwards Hops(%d,%d) should be unroutable", s+1, s)
		}
	}
}

// TestTransferTimeMonotone checks HopTransferTime grows with bytes at fixed
// hops and with hops at fixed bytes, on every preset.
func TestTransferTimeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, ctor := range Presets {
		pkg := ctor()
		for trial := 0; trial < 200; trial++ {
			src := rng.Intn(pkg.Chips)
			dst := rng.Intn(pkg.Chips)
			h, ok := pkg.PathHops(src, dst)
			if !ok || h == 0 {
				continue
			}
			b := int64(1 + rng.Intn(1<<24))
			tt := pkg.HopTransferTime(h, b)
			if tt <= 0 {
				t.Fatalf("%s: HopTransferTime(%d,%d) = %v, want > 0", name, h, b, tt)
			}
			if more := pkg.HopTransferTime(h, 2*b); more <= tt {
				t.Fatalf("%s: transfer time not monotone in bytes: %v !< %v", name, tt, more)
			}
			if more := pkg.HopTransferTime(h+1, b); more <= tt {
				t.Fatalf("%s: transfer time not monotone in hops: %v !< %v", name, tt, more)
			}
		}
	}
}

func TestMeshRouteXY(t *testing.T) {
	// 2x3 mesh: chip ids (row-major): 0 1 2 / 3 4 5. Route 0 -> 5 goes
	// right twice along row 0, then down column 2.
	topo, err := NewTopology(TopoMesh, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := topo.Hops(0, 5)
	if !ok || h != 3 {
		t.Fatalf("Hops(0,5) = %d,%t, want 3,true", h, ok)
	}
	route, ok := topo.AppendRoute(nil, 0, 5)
	if !ok || len(route) != 3 {
		t.Fatalf("route(0,5) = %v, want 3 links", route)
	}
	// Reverse route exists and uses different (opposite-direction) links.
	back, ok := topo.AppendRoute(nil, 5, 0)
	if !ok || len(back) != 3 {
		t.Fatalf("route(5,0) = %v, want 3 links", back)
	}
	for _, l := range route {
		for _, b := range back {
			if l == b {
				t.Fatalf("forward and reverse routes share directed link %d", l)
			}
		}
	}
}

func TestBiRingTakesShorterDirection(t *testing.T) {
	topo, err := NewTopology(TopoBiRing, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := topo.Hops(0, 7); h != 1 {
		t.Fatalf("Hops(0,7) = %d, want 1 (wraparound)", h)
	}
	if h, _ := topo.Hops(7, 0); h != 1 {
		t.Fatalf("Hops(7,0) = %d, want 1 (wraparound)", h)
	}
	if h, _ := topo.Hops(0, 4); h != 4 {
		t.Fatalf("Hops(0,4) = %d, want 4 (tie)", h)
	}
}

func TestNewTopologyRejectsBadConfigs(t *testing.T) {
	if _, err := NewTopology("torus", 8, 0); err == nil {
		t.Fatal("unknown topology should error")
	}
	if _, err := NewTopology(TopoMesh, 8, 3); err == nil {
		t.Fatal("mesh rows not dividing chips should error")
	}
	if _, err := NewTopology(TopoMesh, 8, 0); err == nil {
		t.Fatal("mesh without rows should error")
	}
}

func TestHeterogeneousAccessors(t *testing.T) {
	p := Het4()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Heterogeneous() {
		t.Fatal("Het4 should report Heterogeneous")
	}
	if Dev4().Heterogeneous() {
		t.Fatal("Dev4 should not report Heterogeneous")
	}
	if got := p.ChipSRAM(0); got != 16<<20 {
		t.Fatalf("ChipSRAM(0) = %d, want 16 MiB", got)
	}
	if got := p.ChipSRAM(3); got != 8<<20 {
		t.Fatalf("ChipSRAM(3) = %d, want 8 MiB", got)
	}
	if got := p.MinChipSRAM(); got != 8<<20 {
		t.Fatalf("MinChipSRAM = %d, want 8 MiB", got)
	}
	if got := p.ComputeTimeOn(0, 2e12); got != 1 {
		t.Fatalf("ComputeTimeOn(big, peak) = %v, want 1s", got)
	}
	if got := p.ComputeTimeOn(3, 2e12); got != 2 {
		t.Fatalf("ComputeTimeOn(little, 2x little peak) = %v, want 2s", got)
	}
	// Homogeneous accessors fall back to the base fields.
	d := Dev4()
	if d.ChipSRAM(2) != d.SRAMBytes || d.ChipFLOPs(1) != d.PeakFLOPs {
		t.Fatal("homogeneous accessors should return base fields")
	}
}

func TestValidateRejectsBadHeterogeneousPackages(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Package)
	}{
		{"short sram array", func(p *Package) { p.ChipSRAMBytes = p.ChipSRAMBytes[:2] }},
		{"zero sram entry", func(p *Package) { p.ChipSRAMBytes[1] = 0 }},
		{"short flops array", func(p *Package) { p.ChipPeakFLOPs = p.ChipPeakFLOPs[:1] }},
		{"negative flops entry", func(p *Package) { p.ChipPeakFLOPs[0] = -1 }},
		{"mesh rows on ring", func(p *Package) { p.MeshRows = 2 }},
		{"unknown topology", func(p *Package) { p.Topology = "torus" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := Het4()
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatalf("Validate should reject %s", tt.name)
			}
		})
	}
}

// TestPackageJSONRoundTrip pins (de)serialization for every preset,
// including heterogeneous arrays and topology tags, and that pre-topology
// JSON (no new fields) still parses to the default ring.
func TestPackageJSONRoundTrip(t *testing.T) {
	for name, ctor := range Presets {
		pkg := ctor()
		data, err := json.Marshal(pkg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		back, err := ParseJSON(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if !reflect.DeepEqual(pkg, back) {
			t.Fatalf("%s: round trip mismatch:\n  %+v\n  %+v", name, pkg, back)
		}
	}
	legacy := []byte(`{"name":"old","chips":4,"sram_bytes":8388608,"peak_flops":1e12,"link_bandwidth":1.6e10,"link_latency":1e-6}`)
	p, err := ParseJSON(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if p.TopologyKind() != TopoRing || p.Heterogeneous() {
		t.Fatalf("legacy JSON should parse to homogeneous ring, got %+v", p)
	}
	if _, err := ParseJSON([]byte(`{"name":"bad","chips":0}`)); err == nil {
		t.Fatal("ParseJSON should validate")
	}
	if _, err := ParseJSON([]byte(`{nope`)); err == nil {
		t.Fatal("ParseJSON should reject malformed JSON")
	}
}
