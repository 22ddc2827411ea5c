package mat

import (
	"math/rand"
	"testing"

	"mcmpart/internal/parallel"
)

// withWorkers runs fn under a temporary process-default worker count.
func withWorkers(w int, fn func()) {
	old := parallel.Default()
	parallel.SetDefault(w)
	defer parallel.SetDefault(old)
	fn()
}

// TestMulWorkerCountDeterminism pins the kernel contract: above the fan-out
// threshold, Mul/MulAdd/MulATB/MulATBAcc/MulABT produce bit-for-bit
// identical outputs at workers=1 and workers=8, because row-splitting never
// reorders any element's accumulation.
func TestMulWorkerCountDeterminism(t *testing.T) {
	const n = 96 // 96^3 ≈ 885k flops, above ParallelFlopThreshold
	if n*n*n < ParallelFlopThreshold {
		t.Fatalf("test size below parallel threshold; raise n")
	}
	rng := rand.New(rand.NewSource(7))
	a, b := New(n, n), New(n, n)
	a.XavierInit(rng)
	b.XavierInit(rng)
	// Sprinkle exact zeros to exercise the skip branches.
	for i := 0; i < n*n; i += 17 {
		a.Data[i] = 0
	}

	kernels := []struct {
		name string
		run  func(out *Dense)
	}{
		{"Mul", func(out *Dense) { Mul(out, a, b) }},
		{"MulAdd", func(out *Dense) { out.Zero(); MulAdd(out, a, b); MulAdd(out, a, b) }},
		{"MulATB", func(out *Dense) { MulATB(out, a, b) }},
		{"MulATBAcc", func(out *Dense) { out.Zero(); MulATBAcc(out, a, b); MulATBAcc(out, a, b) }},
		{"MulABT", func(out *Dense) { MulABT(out, a, b) }},
	}
	for _, k := range kernels {
		serial, parallel8 := New(n, n), New(n, n)
		withWorkers(1, func() { k.run(serial) })
		withWorkers(8, func() { k.run(parallel8) })
		for i := range serial.Data {
			if serial.Data[i] != parallel8.Data[i] {
				t.Fatalf("%s: element %d differs: workers=1 %v, workers=8 %v",
					k.name, i, serial.Data[i], parallel8.Data[i])
			}
		}
	}
}

// TestSerialRowBlocksAllocatesNothing: a stage above the fan-out threshold
// that the lane budget grants no lane — every row-block stage nested inside
// a rollout worker on a two-vCPU host — runs its kernel on the caller and
// allocates nothing.
func TestSerialRowBlocksAllocatesNothing(t *testing.T) {
	const n = 64
	o := operands{New(n, n), New(n, n), New(n, n)}
	withWorkers(1, func() {
		allocs := testing.AllocsPerRun(20, func() { RowBlocks(n, ParallelFlopThreshold, operands.mulAdd, o) })
		if allocs != 0 {
			t.Fatalf("a serial RowBlocks above the threshold allocates %v times per call, want 0", allocs)
		}
	})
}

// TestMulAddMatchesMulPlusAdd checks the fused kernel against its unfused
// composition.
func TestMulAddMatchesMulPlusAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := New(13, 7), New(7, 11)
	a.XavierInit(rng)
	b.XavierInit(rng)
	base := New(13, 11)
	base.XavierInit(rng)

	want := base.Clone()
	prod := New(13, 11)
	Mul(prod, a, b)
	Axpy(1, prod.Data, want.Data)

	got := base.Clone()
	MulAdd(got, a, b)
	for i := range want.Data {
		// Fused accumulation rounds differently from compute-then-add;
		// only near-equality is promised between the two formulations.
		if d := got.Data[i] - want.Data[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("MulAdd element %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestMulATBAccMatchesMulATBPlusAdd checks the fused transpose kernel.
func TestMulATBAccMatchesMulATBPlusAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := New(9, 13), New(9, 5)
	a.XavierInit(rng)
	b.XavierInit(rng)
	base := New(13, 5)
	base.XavierInit(rng)

	want := base.Clone()
	prod := New(13, 5)
	MulATB(prod, a, b)
	Axpy(1, prod.Data, want.Data)

	got := base.Clone()
	MulATBAcc(got, a, b)
	for i := range want.Data {
		if d := got.Data[i] - want.Data[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("MulATBAcc element %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	for i, want := range []float64{12, 24, 36} {
		if y[i] != want {
			t.Fatalf("Axpy y[%d] = %v, want %v", i, y[i], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy length mismatch did not panic")
		}
	}()
	Axpy(1, []float64{1}, []float64{1, 2})
}
