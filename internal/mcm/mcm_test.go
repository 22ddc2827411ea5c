package mcm

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for name := range Presets {
		p, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("preset %q has Name %q", name, p.Name)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset should error")
	}
}

func TestEdge36MatchesPaperPlatform(t *testing.T) {
	p := Edge36()
	if p.Chips != 36 {
		t.Fatalf("Edge36 has %d chips, want 36", p.Chips)
	}
	// "Each chip has tens of MBs SRAM, and inter-chip links only offer a
	// bandwidth of tens of GB/s."
	if mb := p.SRAMBytes >> 20; mb < 10 || mb >= 100 {
		t.Fatalf("Edge36 SRAM = %d MiB, want tens of MiB", mb)
	}
	if gbs := p.LinkBandwidth / 1e9; gbs < 10 || gbs >= 100 {
		t.Fatalf("Edge36 link = %v GB/s, want tens of GB/s", gbs)
	}
}

func TestValidateRejectsBadPackages(t *testing.T) {
	base := *Dev4()
	tests := []struct {
		name   string
		mutate func(*Package)
	}{
		{"zero chips", func(p *Package) { p.Chips = 0 }},
		{"too many chips", func(p *Package) { p.Chips = MaxChips + 1 }},
		{"no sram", func(p *Package) { p.SRAMBytes = 0 }},
		{"no compute", func(p *Package) { p.PeakFLOPs = 0 }},
		{"no bandwidth", func(p *Package) { p.LinkBandwidth = 0 }},
		{"negative latency", func(p *Package) { p.LinkLatency = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Fatalf("Validate should reject %s", tt.name)
			}
		})
	}
}

func TestHopsAndTransferTime(t *testing.T) {
	p := Dev4()
	hops := func(src, dst int) int {
		t.Helper()
		h, ok := p.PathHops(src, dst)
		if !ok {
			t.Fatalf("PathHops(%d,%d) found no route", src, dst)
		}
		return h
	}
	if h := hops(1, 3); h != 2 {
		t.Fatalf("PathHops(1,3) = %d, want 2", h)
	}
	if h := hops(2, 2); h != 0 {
		t.Fatalf("PathHops(2,2) = %d, want 0", h)
	}
	if _, ok := p.PathHops(3, 1); ok {
		t.Fatal("PathHops(3,1) found a route: links are uni-directional")
	}
	if tt := p.HopTransferTime(hops(2, 2), 1<<20); tt != 0 {
		t.Fatalf("intra-chip transfer should be free, got %v", tt)
	}
	if tt := p.HopTransferTime(hops(0, 1), 0); tt != 0 {
		t.Fatalf("zero-byte transfer should be free, got %v", tt)
	}
	one := p.HopTransferTime(hops(0, 1), 1<<20)
	two := p.HopTransferTime(hops(0, 2), 1<<20)
	if one <= 0 || two <= one {
		t.Fatalf("transfer time should grow with hops: 1 hop %v, 2 hops %v", one, two)
	}
	want := p.LinkLatency + float64(1<<20)/p.LinkBandwidth
	if diff := one - want; diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("HopTransferTime(1 hop) = %v, want %v", one, want)
	}
}

func TestComputeTime(t *testing.T) {
	p := Dev4()
	if got := p.ComputeTimeOn(0, p.PeakFLOPs); got != 1 {
		t.Fatalf("ComputeTimeOn(0, peak) = %v, want 1s", got)
	}
}

func TestString(t *testing.T) {
	s := Edge36().String()
	for _, want := range []string{"edge36", "chips=36"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
