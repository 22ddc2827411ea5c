package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	out := New(2, 2)
	Mul(out, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("Mul = %v, want %v", out.Data, want)
		}
	}
}

// naiveMul is the reference implementation for property tests.
func naiveMul(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Row(i)[j] = s
		}
	}
	return out
}

func randMat(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func approxEqual(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMulVariantsAgreeWithNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		out := New(m, n)
		Mul(out, a, b)
		if !approxEqual(out, naiveMul(a, b), 1e-10) {
			return false
		}
		// MulATB: aT (k x m) -> use a2 of shape k x m.
		a2 := randMat(rng, k, m)
		outT := New(m, n)
		MulATB(outT, a2, b)
		// Reference: transpose a2 then multiply.
		a2T := New(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				a2T.Row(j)[i] = a2.At(i, j)
			}
		}
		if !approxEqual(outT, naiveMul(a2T, b), 1e-10) {
			return false
		}
		// MulABT: b2 is n x k.
		b2 := randMat(rng, n, k)
		outB := New(m, n)
		MulABT(outB, a, b2)
		b2T := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				b2T.Row(j)[i] = b2.At(i, j)
			}
		}
		return approxEqual(outB, naiveMul(a, b2T), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	m := FromSlice(2, 2, []float64{2, 4, 6, 8})
	m.AddRowVector([]float64{100, 200})
	if m.At(0, 0) != 102 || m.At(1, 1) != 208 {
		t.Fatalf("AddRowVector wrong: %v", m.Data)
	}
	sums := make([]float64, 2)
	m.ColSums(sums)
	if sums[0] != 102+106 || sums[1] != 204+208 {
		t.Fatalf("ColSums wrong: %v", sums)
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero wrong: %v", m.Data)
		}
	}
}

func TestCloneAndCopy(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 2, 3})
	c := m.Clone()
	c.Data[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Clone should be deep")
	}
	m.CopyFrom(c)
	if m.At(0, 0) != 99 {
		t.Fatal("CopyFrom failed")
	}
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(64, 32)
	m.XavierInit(rng)
	limit := math.Sqrt(6.0 / 96.0)
	var nonzero int
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %v beyond Xavier limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Fatal("init left too many zeros")
	}
}

func TestShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mul":      func() { Mul(New(1, 1), New(2, 3), New(2, 3)) },
		"fromsize": func() { FromSlice(2, 2, []float64{1}) },
		"rowvec":   func() { New(1, 2).AddRowVector([]float64{1}) },
		"negative": func() { New(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}
