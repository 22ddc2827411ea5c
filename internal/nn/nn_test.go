package nn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mcmpart/internal/mat"
	"mcmpart/internal/parallel"
)

// lossOf runs x through the layer and returns a simple scalar loss (sum of
// squares of the output), used for finite-difference checks.
func lossOf(l *Linear, x *mat.Dense) float64 {
	out := mat.New(x.Rows, l.Out)
	l.Forward(out, x)
	var s float64
	for _, v := range out.Data {
		s += v * v
	}
	return 0.5 * s
}

func TestLinearGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", 4, 3, rng)
	x := mat.New(5, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Analytic gradients: dLoss/dOut = out for the 0.5*sum(out^2) loss.
	out := mat.New(5, 3)
	l.Forward(out, x)
	dOut := out.Clone()
	dX := mat.New(5, 4)
	ZeroGrads(l.Params())
	l.Backward(x, dX, dOut)

	const eps = 1e-6
	check := func(name string, data []float64, grad []float64) {
		for i := range data {
			orig := data[i]
			data[i] = orig + eps
			up := lossOf(l, x)
			data[i] = orig - eps
			down := lossOf(l, x)
			data[i] = orig
			fd := (up - down) / (2 * eps)
			if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: finite diff %v vs analytic %v", name, i, fd, grad[i])
			}
		}
	}
	check("W", l.W.Value.Data, l.W.Grad.Data)
	check("B", l.B.Value.Data, l.B.Grad.Data)
	check("X", x.Data, dX.Data)
}

func TestBackwardAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("fc", 2, 2, rng)
	x := mat.FromSlice(1, 2, []float64{1, 2})
	out := mat.New(1, 2)
	l.Forward(out, x)
	dOut := mat.FromSlice(1, 2, []float64{1, 1})
	ZeroGrads(l.Params())
	l.Backward(x, nil, dOut)
	first := append([]float64(nil), l.W.Grad.Data...)
	l.Forward(out, x)
	l.Backward(x, nil, dOut)
	for i := range first {
		if math.Abs(l.W.Grad.Data[i]-2*first[i]) > 1e-12 {
			t.Fatalf("gradients should accumulate: %v vs %v", l.W.Grad.Data, first)
		}
	}
}

func TestActivationsAndBackward(t *testing.T) {
	x := mat.FromSlice(1, 4, []float64{-2, -0.5, 0.5, 2})
	out := mat.New(1, 4)
	ReLU(out, x)
	if out.At(0, 0) != 0 || out.At(0, 3) != 2 {
		t.Fatalf("ReLU wrong: %v", out.Data)
	}
	dOut := mat.FromSlice(1, 4, []float64{1, 1, 1, 1})
	dX := mat.New(1, 4)
	ReLUBackward(dX, dOut, out)
	if dX.At(0, 0) != 0 || dX.At(0, 2) != 1 {
		t.Fatalf("ReLUBackward wrong: %v", dX.Data)
	}
}

// TestReLUSelectsExactly pins the bit-select form of ReLU and its backward
// pass to max(0, x) semantics at the edges: a zero of either sign, a NaN and
// a negative infinity are all "off" and produce +0.
func TestReLUSelectsExactly(t *testing.T) {
	negZero := math.Copysign(0, -1)
	x := mat.FromSlice(1, 7, []float64{-1, negZero, 0, 2, math.NaN(), math.Inf(1), math.Inf(-1)})
	want := []float64{0, 0, 0, 2, 0, math.Inf(1), 0}
	out := mat.New(1, 7)
	ReLU(out, x)
	for i, w := range want {
		if math.Float64bits(out.Data[i]) != math.Float64bits(w) {
			t.Fatalf("ReLU(%v) = %v (bits %x), want %v", x.Data[i], out.Data[i], math.Float64bits(out.Data[i]), w)
		}
	}
	dOut := mat.FromSlice(1, 7, []float64{-3, -3, -3, -3, -3, negZero, -3})
	wantD := []float64{0, 0, 0, -3, 0, negZero, 0}
	dX := mat.New(1, 7)
	ReLUBackward(dX, dOut, out)
	for i, w := range wantD {
		if math.Float64bits(dX.Data[i]) != math.Float64bits(w) {
			t.Fatalf("ReLUBackward[%d] = %v (bits %x), want %v", i, dX.Data[i], math.Float64bits(dX.Data[i]), w)
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	logits := mat.FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	out, lout := mat.New(2, 3), mat.New(2, 3)
	for r := 0; r < 2; r++ {
		SoftmaxRow(out.Row(r), lout.Row(r), logits.Row(r))
	}
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range out.Row(r) {
			if v <= 0 || math.IsNaN(v) {
				t.Fatalf("softmax row %d has bad value: %v", r, out.Row(r))
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", r, sum)
		}
	}
	if out.At(0, 2) <= out.At(0, 0) {
		t.Fatal("softmax should be monotone in logits")
	}
	// Log-softmax agrees with log(softmax).
	for i := range out.Data {
		if math.Abs(math.Exp(lout.Data[i])-out.Data[i]) > 1e-12 {
			t.Fatalf("log-softmax mismatch at %d", i)
		}
	}
}

// TestSoftmaxRowsMatchesSeparatePasses pins SoftmaxRow's shared-exponential
// pass, row by row, to the bits of the two independent passes it replaced
// (softmax, then log-softmax, each exponentiating every logit itself).
func TestSoftmaxRowsMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := mat.New(64, 36)
	for i := range logits.Data {
		logits.Data[i] = 8 * rng.NormFloat64()
	}
	probs, logProbs := mat.New(64, 36), mat.New(64, 36)
	for r := 0; r < logits.Rows; r++ {
		SoftmaxRow(probs.Row(r), logProbs.Row(r), logits.Row(r))
		row := logits.Row(r)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - max)
		}
		inv, lse := 1/sum, max+math.Log(sum)
		for j, v := range row {
			if want := math.Exp(v-max) * inv; math.Float64bits(probs.At(r, j)) != math.Float64bits(want) {
				t.Fatalf("probs[%d][%d] = %v, want %v", r, j, probs.At(r, j), want)
			}
			if want := v - lse; math.Float64bits(logProbs.At(r, j)) != math.Float64bits(want) {
				t.Fatalf("logProbs[%d][%d] = %v, want %v", r, j, logProbs.At(r, j), want)
			}
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w - 3)^2 with Adam: w should approach 3.
	p := newParam("w", 1, 1)
	p.Value.Data[0] = -5
	opt := NewAdam([]*Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		opt.Step()
	}
	if math.Abs(p.Value.Data[0]-3) > 0.05 {
		t.Fatalf("Adam did not converge: w = %v", p.Value.Data[0])
	}
}

func TestAdamGradClipping(t *testing.T) {
	p := newParam("w", 1, 2)
	opt := NewAdam([]*Param{p}, 0.1)
	opt.MaxGradNorm = 1
	p.Grad.Data[0], p.Grad.Data[1] = 300, 400 // norm 500
	if n := opt.GradNorm(); math.Abs(n-500) > 1e-9 {
		t.Fatalf("GradNorm = %v, want 500", n)
	}
	before := append([]float64(nil), p.Value.Data...)
	opt.Step()
	// With clipping to norm 1 and Adam normalization the step magnitude
	// stays around LR.
	for i := range before {
		if d := math.Abs(p.Value.Data[i] - before[i]); d > 0.2 {
			t.Fatalf("clipped step too large: %v", d)
		}
	}
}

// TestAdamWorkerCountDeterminism runs Adam's fan-out path — a parameter
// list above adamParallelElems, which the quick policies stay below — and
// requires the same norm, weights and moments bit for bit at one worker and
// at four, over steps with and without a clip.
func TestAdamWorkerCountDeterminism(t *testing.T) {
	shapes := [][2]int{{128, 128}, {96, 64}, {1, 96}, {64, 200}, {7, 3}, {200, 1}}
	run := func(workers int) (norms []float64, opt *Adam) {
		old := parallel.Default()
		parallel.SetDefault(workers)
		defer parallel.SetDefault(old)
		rng := rand.New(rand.NewSource(5))
		var params []*Param
		for i, sh := range shapes {
			p := newParam(fmt.Sprint("p", i), sh[0], sh[1])
			p.Value.XavierInit(rng)
			params = append(params, p)
		}
		opt = NewAdam(params, 1e-2)
		if opt.elems < adamParallelElems {
			t.Fatalf("%d parameter elements stay under Adam's fan-out threshold %d", opt.elems, adamParallelElems)
		}
		opt.MaxGradNorm = 30
		for step := 0; step < 4; step++ {
			for _, p := range params {
				for j := range p.Grad.Data {
					p.Grad.Data[j] = rng.NormFloat64() * 0.1 * float64(step+1)
				}
			}
			norms = append(norms, opt.GradNorm())
			opt.Step()
		}
		return norms, opt
	}
	n1, a1 := run(1)
	n4, a4 := run(4)
	if !reflect.DeepEqual(n1, n4) {
		t.Fatalf("gradient norms differ: %v at one worker, %v at four", n1, n4)
	}
	if n1[0] > a1.MaxGradNorm || n1[len(n1)-1] < a1.MaxGradNorm {
		t.Fatalf("norms %v do not straddle the clip %v", n1, a1.MaxGradNorm)
	}
	for i, p := range a1.params {
		q := a4.params[i]
		if !reflect.DeepEqual(p.Value.Data, q.Value.Data) || !reflect.DeepEqual(a1.m[i], a4.m[i]) || !reflect.DeepEqual(a1.v[i], a4.v[i]) {
			t.Fatalf("parameter %s: weights or moments differ between one worker and four", p.Name)
		}
	}
}

// TestAdamSerialStepAllocatesNothing: a step over parameters above Adam's
// fan-out threshold, with its gradient clipped, allocates nothing when the
// lane budget grants the fan-outs no lane. Mutation caught: a Step or
// GradNorm that builds a closure before the fan-out knows it runs serially.
func TestAdamSerialStepAllocatesNothing(t *testing.T) {
	old := parallel.Default()
	parallel.SetDefault(1)
	defer parallel.SetDefault(old)
	rng := rand.New(rand.NewSource(5))
	var params []*Param
	for i, sh := range [][2]int{{128, 128}, {96, 64}, {64, 200}} {
		p := newParam(fmt.Sprint("p", i), sh[0], sh[1])
		p.Value.XavierInit(rng)
		for j := range p.Grad.Data {
			p.Grad.Data[j] = rng.NormFloat64()
		}
		params = append(params, p)
	}
	opt := NewAdam(params, 1e-2)
	if opt.elems < adamParallelElems {
		t.Fatalf("%d parameter elements stay under Adam's fan-out threshold %d", opt.elems, adamParallelElems)
	}
	opt.MaxGradNorm = 1
	if allocs := testing.AllocsPerRun(10, opt.Step); allocs != 0 {
		t.Fatalf("a serial Adam step allocates %v times, want 0", allocs)
	}
	if opt.scale == 1 {
		t.Fatal("the step clipped nothing")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("fc", 3, 2, rng)
	snap := TakeSnapshot(l.Params())
	orig := append([]float64(nil), l.W.Value.Data...)
	l.W.Value.Zero()
	if err := snap.Restore(l.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if l.W.Value.Data[i] != orig[i] {
			t.Fatal("Restore did not bring values back")
		}
	}
	// Missing parameter detected.
	delete(snap, "fc.w")
	if err := snap.Restore(l.Params()); err == nil {
		t.Fatal("Restore should fail on missing params")
	}
}
