// Package mat provides the small dense-matrix kernel the learning stack is
// built on: row-major float64 matrices with the handful of operations a
// GraphSAGE encoder, feed-forward heads and Adam need. Everything is
// allocation-explicit — callers own output buffers — so training loops can
// run allocation-free after warm-up.
//
//mcmlint:hotpath
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows*cols, row-major) without copying.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: %d values for %dx%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// Resized returns a rows x cols matrix for use as scratch: m itself,
// reshaped, when its backing array is large enough (m may be nil), a fresh
// matrix otherwise. The contents are unspecified — callers overwrite them —
// so a loop that asks for the same shapes every pass allocates only on the
// first.
func Resized(m *Dense, rows, cols int) *Dense {
	if m == nil || cap(m.Data) < rows*cols {
		return New(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// At returns the element at (r, c).
func (m *Dense) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Row returns a view of row r.
func (m *Dense) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Zero sets every element to zero.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	m.mustSameShape(src)
	copy(m.Data, src.Data)
}

func (m *Dense) mustSameShape(o *Dense) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Mul computes out = a @ b. out must be preallocated a.Rows x b.Cols and is
// overwritten. The i-k-j loop order keeps the inner loop sequential over
// both b and out for cache friendliness. Large products split output rows
// across the worker pool (see parallel.go); results are identical at any
// worker count.
func Mul(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul shape mismatch (%dx%d)@(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	out.Zero()
	mulRows(out, a, b)
}

// MulAdd computes out += a @ b: the fused form of Mul for accumulation
// chains (e.g. h@Wself + agg@Wneigh in the GraphSAGE layer), saving callers
// a temporary and a second pass over out.
func MulAdd(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAdd shape mismatch (%dx%d)@(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	mulRows(out, a, b)
}

// chunk bounds how many products one accumulate call folds into a tile: the
// compaction buffers live on the stack, and in mulATBRows a chunk of b rows
// (chunk x b.Cols values) is what has to stay in L1 while every output row
// takes its turn over it.
const chunk = 64

// accumulate adds sum_c vals[c] * b[offs[c]+j] to or[j] for every column j,
// folding the products in slice order. It is the one inner kernel of Mul,
// MulAdd, MulATB and MulATBAcc: the callers differ only in how they gather
// a's factors. Four output columns are held in registers across the whole
// product list, so each costs one load of b per multiply-add instead of a
// load, a load and a store; columns past the last full tile go one at a
// time through the same sequence of operations.
func accumulate(or, b, vals []float64, offs []int) {
	offs = offs[:len(vals)]
	j := 0
	for ; j+4 <= len(or); j += 4 {
		t := or[j : j+4 : j+4]
		s0, s1, s2, s3 := t[0], t[1], t[2], t[3]
		for c, av := range vals {
			o := offs[c] + j
			br := b[o : o+4 : o+4]
			s0 += av * br[0]
			s1 += av * br[1]
			s2 += av * br[2]
			s3 += av * br[3]
		}
		t[0], t[1], t[2], t[3] = s0, s1, s2, s3
	}
	for ; j < len(or); j++ {
		s := or[j]
		for c, av := range vals {
			s += av * b[offs[c]+j]
		}
		or[j] = s
	}
}

// mulRows accumulates out += a @ b, row-parallel above the flop threshold.
// Each output row depends only on the matching row of a, so splitting rows
// across workers preserves the serial accumulation order exactly. Per row,
// the non-zero factors of a are compacted first (k ascending, a chunk at a
// time): a post-ReLU input is about half exact zeros, and testing for them
// once per row instead of once per tile keeps the branch out of the inner
// loop.
func mulRows(out, a, b *Dense) {
	RowBlocks(a.Rows, a.Rows*a.Cols*b.Cols, operands.mulAdd, operands{out, a, b})
}

// operands are the matrices of one product: the argument RowBlocks hands
// the row bodies of Mul, MulATB and MulABT, which are its methods.
type operands struct{ out, a, b *Dense }

// mulAdd is mulRows over output rows [lo, hi).
func (o operands) mulAdd(_, lo, hi int) { MulAddRows(o.out, o.a, o.b, lo, hi) }

// MulAddRows is MulAdd over output rows [lo, hi), serially: mulRows' body,
// and what a stage that fans out over rows itself (RowBlocks) calls on its
// blocks. Shapes are the caller's to check.
func MulAddRows(out, a, b *Dense, lo, hi int) {
	var vals [chunk]float64
	var offs [chunk]int
	for i := lo; i < hi; i++ {
		ar := a.Data[i*a.Cols : (i+1)*a.Cols]
		or := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k0 := 0; k0 < len(ar); k0 += chunk {
			n := 0
			for k, av := range ar[k0:min(k0+chunk, len(ar))] {
				// Written unconditionally, kept conditionally: no branch
				// on the data.
				vals[n], offs[n] = av, (k0+k)*b.Cols
				if av != 0 {
					n++
				}
			}
			accumulate(or, b.Data, vals[:n], offs[:n])
		}
	}
}

// MulATB computes out = aᵀ @ b (a is k x m, b is k x n, out is m x n).
func MulATB(out, a, b *Dense) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulATB shape mismatch (%dx%d)ᵀ@(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	out.Zero()
	mulATBRows(out, a, b)
}

// MulATBAcc computes out += aᵀ @ b: the fused form of MulATB used by the
// backward passes to accumulate weight gradients directly into Param.Grad,
// eliminating the per-layer scratch product and its extra pass.
func MulATBAcc(out, a, b *Dense) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulATBAcc shape mismatch (%dx%d)ᵀ@(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	mulATBRows(out, a, b)
}

// mulATBRows accumulates out += aᵀ @ b over blocks of output rows. Output
// row i reads column i of a, so rows are independent and every out element
// accumulates over k in ascending order regardless of the split. The walk
// is blocked over k: a chunk of rows of a and b is brought into cache once
// and every output row folds its share of it (column i of the chunk,
// zeros dropped) before the next chunk is touched — the scalar nest walked
// the whole of a's column, a cache line per element, once per output row.
func mulATBRows(out, a, b *Dense) {
	RowBlocks(a.Cols, a.Rows*a.Cols*b.Cols, operands.mulATB, operands{out, a, b})
}

// mulATB is mulATBRows over output rows [lo, hi).
func (o operands) mulATB(_, lo, hi int) {
	out, a, b := o.out, o.a, o.b
	var vals [chunk]float64
	var offs [chunk]int
	for k0 := 0; k0 < a.Rows; k0 += chunk {
		k1 := min(k0+chunk, a.Rows)
		for i := lo; i < hi; i++ {
			n := 0
			for k := k0; k < k1; k++ {
				av := a.Data[k*a.Cols+i]
				vals[n], offs[n] = av, k*b.Cols
				if av != 0 {
					n++
				}
			}
			if n != 0 {
				accumulate(out.Data[i*out.Cols:(i+1)*out.Cols], b.Data, vals[:n], offs[:n])
			}
		}
	}
}

// MulABT computes out = a @ bᵀ (a is m x k, b is n x k, out is m x n).
// Four rows of b are dotted against a row of a at once: each dot product
// still sums its products in ascending k from zero, but the four chains are
// independent, so the adds overlap instead of queueing behind one another.
// A row of a with exact zeros — a backward pass's ReLU-masked gradient is
// about half zeros — is compacted first, as mulRows does. A row without any
// keeps the plain dot products, the first four of which look for the zeros
// as they go, so a dense a (a gradient of logits) pays one comparison per
// factor for the check and nothing else.
func MulABT(out, a, b *Dense) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulABT shape mismatch (%dx%d)@(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	RowBlocks(a.Rows, a.Rows*a.Cols*b.Rows, operands.mulABT, operands{out, a, b})
}

// mulABT is MulABT over output rows [lo, hi).
func (o operands) mulABT(_, lo, hi int) {
	out, a, b := o.out, o.a, o.b
	var vals [chunk]float64
	var offs [chunk]int
	kk := a.Cols
	for i := lo; i < hi; i++ {
		ar := a.Data[i*kk : (i+1)*kk]
		or := out.Data[i*out.Cols : (i+1)*out.Cols]
		if dotRows(or, ar, b.Data) {
			continue
		}
		clear(or)
		for k0 := 0; k0 < kk; k0 += chunk {
			n := 0
			for k, av := range ar[k0:min(k0+chunk, kk)] {
				vals[n], offs[n] = av, k0+k
				if av != 0 {
					n++
				}
			}
			dotCompacted(or, b.Data, kk, vals[:n], offs[:n])
		}
	}
}

// dotRows writes the dot product of ar with row j of the row-major b (rows
// of len(ar) values) into or[j], for every j, and reports true — unless ar
// holds an exact zero: then it returns false from the first pass over ar,
// which doubles as the scan for one, leaving or partly written.
func dotRows(or, ar, b []float64) bool {
	kk := len(ar)
	j := 0
	if len(or) < 4 {
		for _, av := range ar {
			if av == 0 {
				return false
			}
		}
	} else {
		b0, b1, b2, b3 := b[:kk], b[kk : 2*kk][:kk], b[2*kk : 3*kk][:kk], b[3*kk : 4*kk][:kk]
		var s0, s1, s2, s3 float64
		for k, av := range ar {
			if av == 0 {
				return false
			}
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
		}
		or[0], or[1], or[2], or[3] = s0, s1, s2, s3
		j = 4
	}
	for ; j+4 <= len(or); j += 4 {
		b0 := b[j*kk : (j+1)*kk][:len(ar)]
		b1 := b[(j+1)*kk : (j+2)*kk][:len(ar)]
		b2 := b[(j+2)*kk : (j+3)*kk][:len(ar)]
		b3 := b[(j+3)*kk : (j+4)*kk][:len(ar)]
		var s0, s1, s2, s3 float64
		for k, av := range ar {
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
		}
		or[j], or[j+1], or[j+2], or[j+3] = s0, s1, s2, s3
	}
	for ; j < len(or); j++ {
		br := b[j*kk : (j+1)*kk][:len(ar)]
		var sum float64
		for k, av := range ar {
			sum += av * br[k]
		}
		or[j] = sum
	}
	return true
}

// dotCompacted adds sum_c vals[c] * b[j*kk+offs[c]] to or[j] for every j,
// folding the products in slice order: dotRows over the factors of a row
// that compaction kept.
func dotCompacted(or, b []float64, kk int, vals []float64, offs []int) {
	offs = offs[:len(vals)]
	j := 0
	for ; j+4 <= len(or); j += 4 {
		js := [4]int{j, j + 1, j + 2, j + 3}
		dotCompacted4(or, b, kk, js[:], vals, offs)
	}
	for ; j < len(or); j++ {
		br := b[j*kk : (j+1)*kk]
		s := or[j]
		for c, av := range vals {
			s += av * br[offs[c]]
		}
		or[j] = s
	}
}

// MulABTMaskRows writes output rows [lo, hi) of a @ bᵀ masked by mask: the
// element (i, j) is row i of a dotted with row j of b where mask's (i, j) is
// positive, and +0 everywhere else — MulABT followed by a ReLU's backward
// mask (mask is the forward output), without the products the mask
// discards. It runs serially, for a stage that fans out over rows itself
// (RowBlocks). A kept element is its products added one at a time in
// ascending k from zero, zero a-factors left out, as MulABT sums it. Per row,
// the kept columns are compacted first (a chunk at a time) and dotted four
// at once in independent chains. A row of a with exact zeros has its
// non-zero factors compacted too, as MulABT's does; a row without any — a
// gradient of logits — is dotted as it stands.
func MulABTMaskRows(out, a, b, mask *Dense, lo, hi int) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows || mask.Rows != out.Rows || mask.Cols != out.Cols {
		panic(fmt.Sprintf("mat: MulABTMaskRows shape mismatch (%dx%d)@(%dx%d)ᵀ->(%dx%d) mask (%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols, mask.Rows, mask.Cols))
	}
	var vals [chunk]float64
	var offs [chunk]int
	var cols [chunk]int
	kk, nc := a.Cols, out.Cols
	for i := lo; i < hi; i++ {
		ar := a.Data[i*kk : (i+1)*kk]
		or := out.Data[i*nc : (i+1)*nc]
		mr := mask.Data[i*nc : (i+1)*nc]
		clear(or)
		dense := !hasZero(ar)
		for j0 := 0; j0 < nc; j0 += chunk {
			m := keptCols(&cols, mr, j0)
			if dense {
				for q := 0; q < m; q += 4 {
					dotDense4(or, b.Data, ar, cols[q:q+4:q+4])
				}
				continue
			}
			for k0 := 0; k0 < kk; k0 += chunk {
				n := 0
				for k, av := range ar[k0:min(k0+chunk, kk)] {
					vals[n], offs[n] = av, k0+k
					if av != 0 {
						n++
					}
				}
				for q := 0; q < m; q += 4 {
					dotCompacted4(or, b.Data, kk, cols[q:q+4:q+4], vals[:n], offs[:n])
				}
			}
		}
	}
}

// hasZero reports whether ar holds an exact zero.
func hasZero(ar []float64) bool {
	for _, v := range ar {
		if v == 0 {
			return true
		}
	}
	return false
}

// keptCols writes into cols the indexes j in [j0, j0+chunk) where mr[j] is
// positive, ascending, and returns how many it wrote after repeating the
// last of them up to a multiple of four: a tile of four that dots a column
// twice writes it twice with the same bits, and costs what a lone column
// dotted in one chain would. chunk is a multiple of four, so the repeats
// stay inside cols.
func keptCols(cols *[chunk]int, mr []float64, j0 int) int {
	m := 0
	for j, mv := range mr[j0:min(j0+chunk, len(mr))] {
		// Written unconditionally, kept conditionally: no branch on the
		// data. m < chunk here, which the mask tells the compiler. The test
		// is mv > 0 on the bits — those of +0, less one, wrap around, and
		// negatives and NaNs lie above +Inf's — so that it compiles to a
		// flag set and an add; with the float compare's conditional move
		// the whole kernel ran a quarter slower.
		cols[m&(chunk-1)] = j0 + j
		var kept int
		if math.Float64bits(mv)-1 < math.Float64bits(math.Inf(1)) {
			kept = 1
		}
		m += kept
	}
	for ; m%4 != 0; m++ {
		cols[m] = cols[m-1]
	}
	return m
}

// dotDense4 writes into or[j], for the four kept columns j in js, the dot
// product of ar with row j of b (rows of len(ar) values), each summed in
// ascending k from zero in a chain of its own.
func dotDense4(or, b, ar []float64, js []int) {
	kk := len(ar)
	js = js[:4]
	j0, j1, j2, j3 := js[0], js[1], js[2], js[3]
	b0, b1, b2, b3 := b[j0*kk:][:kk], b[j1*kk:][:kk], b[j2*kk:][:kk], b[j3*kk:][:kk]
	var s0, s1, s2, s3 float64
	for k, av := range ar {
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	or[j0], or[j1], or[j2], or[j3] = s0, s1, s2, s3
}

// dotCompacted4 is dotCompacted over one tile: it adds
// sum_c vals[c] * b[j*kk+offs[c]] to or[j] for the four columns j in js —
// four consecutive ones, or four a mask kept. A function of its own so that
// the loop's pointers fit in registers.
func dotCompacted4(or, b []float64, kk int, js []int, vals []float64, offs []int) {
	js = js[:4]
	j0, j1, j2, j3 := js[0], js[1], js[2], js[3]
	b0, b1, b2, b3 := b[j0*kk:][:kk], b[j1*kk:][:kk], b[j2*kk:][:kk], b[j3*kk:][:kk]
	s0, s1, s2, s3 := or[j0], or[j1], or[j2], or[j3]
	offs = offs[:len(vals)]
	for c, av := range vals {
		k := offs[c]
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	or[j0], or[j1], or[j2], or[j3] = s0, s1, s2, s3
}

// Axpy computes y += s * x over raw slices — the scalar-vector kernel the
// aggregation and optimizer loops share. x and y must have equal length.
func Axpy(s float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += s * v
	}
}

// AddRowVector adds the vector v (length Cols) to every row.
func (m *Dense) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector %d values for %d cols", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j, x := range v {
			row[j] += x
		}
	}
}

// ColSums accumulates the column sums of m into out (length Cols).
func (m *Dense) ColSums(out []float64) {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("mat: ColSums %d values for %d cols", len(out), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j, x := range row {
			out[j] += x
		}
	}
}

// XavierInit fills m with Glorot-uniform values for a fan-in x fan-out
// weight matrix.
func (m *Dense) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * limit
	}
}
