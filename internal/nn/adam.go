package nn

import (
	"math"

	"mcmpart/internal/parallel"
)

// adamParallelElems is the total parameter count above which Step and
// GradNorm fan per-parameter work across the worker pool. Updates are
// independent per parameter and the norm reduces per-parameter partial sums
// in parameter order, so results are identical at any worker count.
const adamParallelElems = 1 << 15

// Adam is the Adam optimizer (Kingma & Ba) over a fixed parameter list.
type Adam struct {
	// LR is the learning rate; Beta1/Beta2/Eps are the usual moment decay
	// rates and stabilizer.
	LR, Beta1, Beta2, Eps float64
	// MaxGradNorm, when positive, clips the global gradient norm before
	// each step (PPO stability).
	MaxGradNorm float64

	params  []*Param
	m, v    [][]float64
	partial []float64 // GradNorm's per-parameter sums of squares
	elems   int
	step    int
	// The Step in flight's clip factor and bias corrections, for its fan-out.
	scale, bc1, bc2 float64
}

// NewAdam returns an optimizer over the parameters with standard defaults
// (beta1 0.9, beta2 0.999, eps 1e-8).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params, partial: make([]float64, len(params))}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Value.Data))
		a.v[i] = make([]float64, len(p.Value.Data))
		a.elems += len(p.Value.Data)
	}
	return a
}

// Reset zeroes the moment estimates and the step count: the optimizer as
// NewAdam returns it, over the same parameters.
func (a *Adam) Reset() {
	for i := range a.m {
		clear(a.m[i])
		clear(a.v[i])
	}
	a.step = 0
}

// fanout is how many parameters a per-parameter loop may work on at once:
// all of them above the size threshold, one below it.
func (a *Adam) fanout() int {
	if a.elems < adamParallelElems {
		return 1
	}
	return len(a.params)
}

// GradNorm returns the global L2 norm of all gradients. Per-parameter
// partial sums, kept in the optimizer, reduce in parameter order, so the
// result is identical at any worker count; like Step, it serves one caller
// at a time.
func (a *Adam) GradNorm() float64 {
	parallel.ForEachBlock(a.fanout(), len(a.params), (*Adam).sumSquares, a)
	var sq float64
	for _, s := range a.partial {
		sq += s
	}
	return math.Sqrt(sq)
}

// sumSquares writes the sum of squares of each gradient of parameters
// [lo, hi) to partial.
func (a *Adam) sumSquares(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sq float64
		for _, g := range a.params[i].Grad.Data {
			sq += g * g
		}
		a.partial[i] = sq
	}
}

// Step applies one Adam update from the accumulated gradients. It does not
// zero the gradients; callers do that when starting the next accumulation.
// Parameters update concurrently above the size threshold; each parameter's
// arithmetic is untouched, so trajectories are worker-count independent. A
// step that runs serially allocates nothing: its fan-outs take no closure.
func (a *Adam) Step() {
	a.scale = 1
	if a.MaxGradNorm > 0 {
		if norm := a.GradNorm(); norm > a.MaxGradNorm {
			a.scale = a.MaxGradNorm / norm
		}
	}
	a.step++
	a.bc1 = 1 - math.Pow(a.Beta1, float64(a.step))
	a.bc2 = 1 - math.Pow(a.Beta2, float64(a.step))
	parallel.ForEachBlock(a.fanout(), len(a.params), (*Adam).update, a)
}

// update applies the step in flight to parameters [lo, hi).
func (a *Adam) update(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		p := a.params[i]
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			g *= a.scale
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mh := m[j] / a.bc1
			vh := v[j] / a.bc2
			p.Value.Data[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}
