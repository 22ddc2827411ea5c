package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The three scalar loop nests the package shipped with until the kernels
// were register-tiled, kept verbatim (minus the row fan-out, which never
// touched accumulation order) as the reference the tiled bodies must match
// bit for bit: every output element accumulates its products in ascending
// k, and mulRows/mulATBRows skip a product whose a-factor is exactly zero.

func refMulRows(out, a, b *Dense) {
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*a.Cols : (i+1)*a.Cols]
		or := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
}

func refMulATBRows(out, a, b *Dense) {
	for i := 0; i < a.Cols; i++ {
		or := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*a.Cols+i]
			if av == 0 {
				continue
			}
			br := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
}

func refMulABT(out, a, b *Dense) {
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*a.Cols : (i+1)*a.Cols]
		or := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := 0; j < b.Rows; j++ {
			br := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum float64
			for k, av := range ar {
				sum += av * br[k]
			}
			or[j] = sum
		}
	}
}

// kernelInput fills an r x c matrix with normal values, then plants exact
// zeros (about half the entries when relu is set, as a post-ReLU activation
// has; a sprinkle otherwise) and negative zeros.
func kernelInput(rng *rand.Rand, r, c int, relu bool) *Dense {
	m := randMat(rng, r, c)
	for i := range m.Data {
		switch {
		case relu && m.Data[i] < 0, rng.Intn(11) == 0:
			m.Data[i] = 0
		case rng.Intn(13) == 0:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return m
}

func requireSameBits(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d (row %d, col %d) = %x (%v), reference %x (%v)", name, i, i/want.Cols, i%want.Cols,
				math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(want.Data[i]), want.Data[i])
		}
	}
}

// TestKernelsBitIdenticalToReference requires the tiled kernels to
// reproduce the reference loop nests exactly — on the policy network's
// shapes, on column counts that leave a partial tile, with exact zeros and
// negative zeros in both operands, accumulating into a non-empty out, and
// at one and eight workers.
func TestKernelsBitIdenticalToReference(t *testing.T) {
	// m x k @ k x n.
	shapes := [][3]int{
		{2138, 68, 32}, {2138, 32, 36}, {2138, 23, 32}, // fc1, fc2, SAGE layer 0 on BERT/edge36
		{300, 300, 9}, // k beyond one compaction chunk
	}
	for _, n := range []int{1, 3, 5, 13, 33} {
		shapes = append(shapes, [3]int{37, 29, n}, [3]int{41, n, 7}, [3]int{n, 11, 19})
	}
	rng := rand.New(rand.NewSource(15))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for _, relu := range []bool{false, true} {
			a := kernelInput(rng, m, k, relu) // m x k
			b := kernelInput(rng, k, n, false)
			bt := kernelInput(rng, n, k, false) // for a @ btᵀ
			c := kernelInput(rng, m, n, relu)   // for aᵀ @ c
			seedMN := kernelInput(rng, m, n, false)
			seedKN := kernelInput(rng, k, n, false)
			for _, workers := range []int{1, 8} {
				name := func(kernel string) string {
					return fmt.Sprintf("%s %dx%dx%d relu=%v workers=%d", kernel, m, k, n, relu, workers)
				}
				withWorkers(workers, func() {
					got, want := seedMN.Clone(), New(m, n)
					Mul(got, a, b)
					refMulRows(want, a, b)
					requireSameBits(t, name("Mul"), got, want)

					got, want = seedMN.Clone(), seedMN.Clone()
					MulAdd(got, a, b)
					refMulRows(want, a, b)
					requireSameBits(t, name("MulAdd"), got, want)

					got, want = seedKN.Clone(), New(k, n)
					MulATB(got, a, c)
					refMulATBRows(want, a, c)
					requireSameBits(t, name("MulATB"), got, want)

					got, want = seedKN.Clone(), seedKN.Clone()
					MulATBAcc(got, a, c)
					refMulATBRows(want, a, c)
					requireSameBits(t, name("MulATBAcc"), got, want)

					got, want = seedMN.Clone(), New(m, n)
					MulABT(got, a, bt)
					refMulABT(want, a, bt)
					requireSameBits(t, name("MulABT"), got, want)
				})
			}
		}
	}
}

// TestKernelsKeepNonFiniteSemantics pins the one place where skipping a
// zero factor is visible in the value, not only the sign of a zero: 0 * Inf
// is NaN, and every kernel skips it. refMulABT multiplies every factor; on
// finite operands that gives the same bits, which
// TestKernelsBitIdenticalToReference checks.
func TestKernelsKeepNonFiniteSemantics(t *testing.T) {
	a := FromSlice(1, 2, []float64{0, 2})
	b := FromSlice(2, 1, []float64{math.Inf(1), 3})
	out := New(1, 1)
	Mul(out, a, b)
	if out.Data[0] != 6 {
		t.Fatalf("Mul must skip the zero factor: got %v, want 6", out.Data[0])
	}
	at := FromSlice(2, 1, []float64{0, 2})
	MulATB(out, at, b)
	if out.Data[0] != 6 {
		t.Fatalf("MulATB must skip the zero factor: got %v, want 6", out.Data[0])
	}
	bt := FromSlice(1, 2, []float64{math.Inf(1), 3})
	MulABT(out, a, bt)
	if out.Data[0] != 6 {
		t.Fatalf("MulABT must skip the zero factor: got %v, want 6", out.Data[0])
	}
	// Five rows of b: a four-wide tile, then one on its own.
	bt5 := FromSlice(5, 2, []float64{math.Inf(1), 3, math.Inf(1), 3, math.Inf(1), 3, math.Inf(1), 3, math.Inf(1), 3})
	out5 := New(1, 5)
	MulABT(out5, a, bt5)
	for j, v := range out5.Data {
		if v != 6 {
			t.Fatalf("MulABT must skip the zero factor: column %d got %v, want 6", j, v)
		}
	}
}

// maskedMulABT is the reference MulABTMaskRows must equal bit for bit:
// MulABT, then the ReLU backward's mask written out — +0 wherever the mask
// entry is not positive.
func maskedMulABT(a, b, mask *Dense) *Dense {
	want := New(a.Rows, b.Rows)
	MulABT(want, a, b)
	for i, m := range mask.Data {
		if !(m > 0) {
			want.Data[i] = 0
		}
	}
	return want
}

// maskRows runs MulABTMaskRows over every row of out, split into row
// blocks at any size when the worker count allows, as a stage that fans out
// over rows calls it.
func maskRows(out, a, b, mask *Dense) {
	RowBlocks(out.Rows, ParallelFlopThreshold, func(_ struct{}, _, lo, hi int) { MulABTMaskRows(out, a, b, mask, lo, hi) }, struct{}{})
}

// TestMulABTMaskRowsMatchesMaskedMulABT requires the masked product to
// reproduce MulABT followed by the mask bit for bit: rows of a without a
// zero, rows with exact zeros and negative zeros, a whole zero row, mask entries that are 0, -0,
// negative and NaN, 1 to 7 rows of b so that every partial tile of kept
// columns occurs, k and column counts beyond one compaction chunk, an out
// holding garbage, and one and eight workers.
func TestMulABTMaskRowsMatchesMaskedMulABT(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type shape struct{ m, k, n int }                              // a is m x k, b is n x k
	shapes := []shape{{2138, 36, 32}, {300, 70, 9}, {45, 11, 70}} // fc2's input gradient on BERT/edge36; k, then columns, beyond a chunk
	for n := 1; n <= 7; n++ {
		shapes = append(shapes, shape{37, 29, n}, shape{19, 4, n})
	}
	for _, s := range shapes {
		a := kernelInput(rng, s.m, s.k, false)
		for i := 0; i < s.m; i += 2 { // every other row without a zero: the dense path
			for j, v := range a.Row(i) {
				if v == 0 {
					a.Row(i)[j] = rng.NormFloat64()
				}
			}
		}
		clear(a.Row(s.m / 2))
		b := kernelInput(rng, s.n, s.k, false)
		mask := randMat(rng, s.m, s.n)
		for i := range mask.Data {
			switch rng.Intn(8) {
			case 0:
				mask.Data[i] = 0
			case 1:
				mask.Data[i] = math.Copysign(0, -1)
			case 2:
				mask.Data[i] = math.NaN()
			}
		}
		want := maskedMulABT(a, b, mask)
		for _, workers := range []int{1, 8} {
			got := kernelInput(rng, s.m, s.n, false)
			withWorkers(workers, func() { maskRows(got, a, b, mask) })
			requireSameBits(t, fmt.Sprintf("MulABTMaskRows %dx%dx%d workers=%d", s.m, s.k, s.n, workers), got, want)
		}
	}
}

// TestMulABTMaskRowsNonFinite pins what the mask and the zero-factor skip
// mean beyond finite operands: a masked element is +0 even where its
// product would be NaN, and a kept element leaves out 0·Inf and -0·Inf, as
// MulABT does, so it never becomes a NaN. Five kept columns: a four-wide
// tile, then one on its own.
func TestMulABTMaskRowsNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	a := FromSlice(1, 3, []float64{0, 2, math.Copysign(0, -1)})
	b := FromSlice(8, 3, []float64{
		inf, 3, inf, // kept: 6
		1, nan, 1, // masked by 0
		inf, 3, -inf, // masked by a negative entry
		inf, 3, inf, // kept
		inf, 3, inf, // kept
		nan, nan, nan, // masked by NaN
		inf, 3, inf, // kept
		inf, 3, -inf, // kept
	})
	mask := FromSlice(1, 8, []float64{1, 0, -1, 2, 3, nan, 4, 5})
	out := FromSlice(1, 8, []float64{nan, nan, nan, nan, nan, nan, nan, nan})
	MulABTMaskRows(out, a, b, mask, 0, 1)
	for j, v := range out.Data {
		want := 6.0
		if !(mask.Data[j] > 0) {
			want = 0
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("column %d = %v (%x), want %v", j, v, math.Float64bits(v), want)
		}
	}
}

// Kernel benchmarks at the shapes one PPO transition on BERT/edge36 runs
// (N = 2138 nodes, hidden 32, 36 chips), with post-ReLU sparsity where the
// network has it. "ref" is the scalar nest the kernel replaced.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, h, c = 2138, 32, 36
	z := kernelInput(rng, n, h+c, false)  // fc1 input: embedding + one-hot
	a1 := kernelInput(rng, n, h, true)    // post-ReLU hidden
	w1 := kernelInput(rng, h+c, h, false) // fc1 weights
	w2 := kernelInput(rng, h, c, false)   // fc2 weights
	dLogits := randMat(rng, n, c)
	dA1 := kernelInput(rng, n, h, true)
	for i := 0; i < n; i++ { // one-hot block: one 1 per row
		row := z.Row(i)[h:]
		for j := range row {
			row[j] = 0
		}
		row[rng.Intn(c)] = 1
	}
	wSelf := FromSlice(h, h, w1.Data[:h*h]) // a SAGE layer's h x h weights
	outNH, outNC, outKH, outHC := New(n, h), New(n, c), New(h+c, h), New(h, c)
	cases := []struct {
		name string
		run  func()
		ref  func()
	}{
		{"Mul/fc1", func() { Mul(outNH, z, w1) }, func() { outNH.Zero(); refMulRows(outNH, z, w1) }},
		{"Mul/fc2", func() { Mul(outNC, a1, w2) }, func() { outNC.Zero(); refMulRows(outNC, a1, w2) }},
		{"MulATB/fc1", func() { MulATB(outKH, z, dA1) }, func() { outKH.Zero(); refMulATBRows(outKH, z, dA1) }},
		{"MulATB/fc2", func() { MulATB(outHC, a1, dLogits) }, func() { outHC.Zero(); refMulATBRows(outHC, a1, dLogits) }},
		{"MulABT/fc2", func() { MulABT(outNH, dLogits, w2) }, func() { refMulABT(outNH, dLogits, w2) }},
		{"MulABT/sage", func() { MulABT(outNH, dA1, wSelf) }, func() { refMulABT(outNH, dA1, wSelf) }},
		// fc2's input gradient as the head computed it before the masked
		// kernel: the dense product, then the ReLU mask.
		{"MulABTMaskRows/fc2", func() { MulABTMaskRows(outNH, dLogits, w2, a1, 0, n) }, func() {
			MulABT(outNH, dLogits, w2)
			for i, m := range a1.Data {
				if !(m > 0) {
					outNH.Data[i] = 0
				}
			}
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			withWorkers(1, func() {
				for i := 0; i < b.N; i++ {
					tc.run()
				}
			})
		})
		b.Run(tc.name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.ref()
			}
		})
	}
}
