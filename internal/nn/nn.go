// Package nn provides the feed-forward building blocks of the RL policy:
// linear layers with manual backpropagation, activations, row-wise softmax,
// an Adam optimizer, and parameter (de)serialization for checkpoints.
//
// Gradient convention: Backward methods accumulate into parameter gradients
// (callers zero them once per optimization step via ZeroGrads) and overwrite
// input-gradient buffers.
//
//mcmlint:hotpath
package nn

import (
	"math/rand"

	"mcmpart/internal/mat"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *mat.Dense
	Grad  *mat.Dense
}

// newParam allocates a named parameter of the given shape.
func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Value: mat.New(rows, cols), Grad: mat.New(rows, cols)}
}

// ZeroGrads clears the gradient accumulators of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// Linear is a fully connected layer: Y = X @ W + b.
type Linear struct {
	In, Out int
	W, B    *Param
}

// NewLinear returns a Xavier-initialized linear layer. A nil rng leaves the
// weights zero, for a layer whose weights are about to be copied in.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out,
		W: newParam(name+".w", in, out),
		B: newParam(name+".b", 1, out),
	}
	if rng != nil {
		l.Init(rng)
	}
	return l
}

// Init draws the layer's weights from rng (Xavier) and zeroes its bias: a
// layer as NewLinear builds it from rng.
func (l *Linear) Init(rng *rand.Rand) {
	l.W.Value.XavierInit(rng)
	l.B.Value.Zero()
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Forward computes out = x @ W + b. out must be x.Rows x Out and distinct
// from x. The layer keeps nothing of the pass: Backward takes x again.
func (l *Linear) Forward(out, x *mat.Dense) {
	mat.Mul(out, x, l.W.Value)
	out.AddRowVector(l.B.Value.Data)
}

// Backward accumulates parameter gradients from dOut, the gradient of the
// output Forward computed from x, and, when dX is non-nil, overwrites it
// with the input gradient.
func (l *Linear) Backward(x, dX, dOut *mat.Dense) {
	mat.MulATBAcc(l.W.Grad, x, dOut)
	dOut.ColSums(l.B.Grad.Data)
	if dX != nil {
		mat.MulABT(dX, dOut, l.W.Value)
	}
}
