package nn

import (
	"math"

	"mcmpart/internal/mat"
)

// ReLU applies max(0, x) elementwise: out = relu(x). It caches nothing;
// ReLUBackward takes the forward output.
//
// Both passes select on the bit pattern instead of branching on the value:
// about half of a layer's units are off, in no pattern a branch predictor
// can learn, and the integer form compiles to a conditional move.
func ReLU(out, x *mat.Dense) { ReLURow(out.Data, x.Data) }

// ReLURow is ReLU over raw slices, a row or any part of one: out = relu(x),
// out at least as long as x. out may alias x.
func ReLURow(out, x []float64) {
	o := out[:len(x)]
	for i, v := range x {
		b := math.Float64bits(v)
		if !(v > 0) {
			b = 0
		}
		o[i] = math.Float64frombits(b)
	}
}

// ReLUBackward overwrites dX with dOut masked by the forward output out.
// dX and dOut may alias.
func ReLUBackward(dX, dOut, out *mat.Dense) {
	d, o := dX.Data[:len(dOut.Data)], out.Data[:len(dOut.Data)]
	for i, g := range dOut.Data {
		b := math.Float64bits(g)
		if !(o[i] > 0) {
			b = 0
		}
		d[i] = math.Float64frombits(b)
	}
}

// SoftmaxRow writes the softmax of the logits row into p and its
// log-softmax into lp — one row of a distribution over actions — sharing
// one pass of exponentials between them. Both are numerically stable
// (max-subtracted). lp may alias row — each logit is read before its
// log-probability is written — but p may not.
func SoftmaxRow(p, lp, row []float64) {
	max := math.Inf(-1)
	for _, v := range row {
		if v > max {
			max = v
		}
	}
	var sum float64
	for j, v := range row {
		e := math.Exp(v - max)
		p[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range p {
		p[j] *= inv
	}
	lse := max + math.Log(sum)
	for j, v := range row {
		lp[j] = v - lse
	}
}
