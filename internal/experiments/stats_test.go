package experiments

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := mean(xs); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	if mean(nil) != 0 {
		t.Fatal("an empty slice should give 0")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Geomean = %v, want 2", got)
	}
	if got := geomean([]float64{10, 10, 10}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Geomean = %v, want 10", got)
	}
	// Non-positive entries clamp rather than zeroing everything.
	if got := geomean([]float64{0, 4}); got <= 0 {
		t.Fatalf("Geomean with zero entry = %v", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", got)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if got := pearson(x, yneg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if got := pearson(x, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Fatalf("degenerate correlation = %v", got)
	}
	if got := pearson(x, []float64{1}); got != 0 {
		t.Fatalf("length mismatch should give 0, got %v", got)
	}
	// Noisy positive correlation lands strictly between 0 and 1.
	ynoisy := []float64{2.1, 3.7, 6.5, 7.4, 10.9}
	r := pearson(x, ynoisy)
	if r <= 0.9 || r >= 1 {
		t.Fatalf("noisy correlation = %v, want in (0.9, 1)", r)
	}
}

func TestFirstReached(t *testing.T) {
	h := []float64{1.0, 1.2, 1.5, 1.5, 1.9}
	if got := firstReached(h, 1.5); got != 3 {
		t.Fatalf("FirstReached = %d, want 3", got)
	}
	if got := firstReached(h, 2.0); got != -1 {
		t.Fatalf("unreached threshold should give -1, got %d", got)
	}
	if got := firstReached(h, 0.5); got != 1 {
		t.Fatalf("immediately reached should give 1, got %d", got)
	}
}

func TestGeomeanCurves(t *testing.T) {
	histories := [][]float64{
		{1, 2, 4},
		{4, 4}, // shorter: final value extends
	}
	curve := geomeanCurves(histories, 3)
	if math.Abs(curve[0]-2) > 1e-12 {
		t.Fatalf("curve[0] = %v, want 2", curve[0])
	}
	if math.Abs(curve[1]-math.Sqrt(8)) > 1e-12 {
		t.Fatalf("curve[1] = %v, want sqrt(8)", curve[1])
	}
	if math.Abs(curve[2]-4) > 1e-12 {
		t.Fatalf("curve[2] = %v, want 4", curve[2])
	}
	empty := geomeanCurves([][]float64{{}}, 2)
	if empty[0] <= 0 {
		t.Fatal("empty history should clamp, not zero")
	}
}
