package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mcmpart/internal/mat"
	"mcmpart/internal/mcm"
	"mcmpart/internal/nn"
	"mcmpart/internal/parallel"
	"mcmpart/internal/workload"
)

// refForward, refHeads and refBackward are Forward, Heads and Backward as
// they stood when the policy head built its whole input matrix
// z = [h ; onehot(prev) ; ChipFeat], multiplied all of it by fc1 for every
// state and kept its logits (4a63c0f), kept as the reference the split head
// and the start-state memo must equal bit for bit (TestHeadsMatchReference).
// To check:
//
//	git show 4a63c0f:internal/rl/policy.go | sed -n '213,225p;247,299p;312,337p' | sed \
//	  -e 's/^type Forward struct/type refForward struct/' \
//	  -e 's/^func (p \*Policy) Heads(enc \*Encoding, prev \[\]int) \*Forward {/func refHeads(p *refPolicy, f *refForward, enc *Encoding, prev []int) *refForward {/' \
//	  -e 's/^func (p \*Policy) Backward(f \*Forward,/func refBackward(p *refPolicy, f *refForward,/' \
//	  -e 's/p\.fc2\.Backward(/p.fc2.Backward(f.a1, /; s/p\.fc1\.Backward(/p.fc1.Backward(f.z, /' \
//	  -e 's/p\.vf2\.Backward(/p.vf2.Backward(f.v1, /; s/p\.vf1\.Backward(/p.vf1.Backward(f.pooled, /' \
//	  -e 's/nn\.SoftmaxRows(/softmaxRows(/' |
//	  diff - <(sed -n '/^type refForward struct/,/^}$/p;/^func refHeads/,/^}$/p;/^func refBackward/,/^}$/p' internal/rl/heads_ref_test.go)
//
// The sed expressions are two signature changes and a rename: the
// functions are no longer methods — of refPolicy, which adds back the
// embedding-gradient scratch Policy no longer keeps — nn.Linear.Backward
// takes the layer input it no longer caches, and nn.SoftmaxRows, which the
// policy no longer calls, is softmaxRows below. The diff is one line:
// refHeads does not take `f := &p.fwd`, as the policy's scratch has no z or
// logits; its caller passes the record.

// softmaxRows is nn.SoftmaxRows as it stood when the policy head called it
// on the whole logit matrix: nn.SoftmaxRow on every row.
func softmaxRows(probs, logProbs, logits *mat.Dense) {
	for r := 0; r < logits.Rows; r++ {
		nn.SoftmaxRow(probs.Row(r), logProbs.Row(r), logits.Row(r))
	}
}

// refPolicy is a Policy plus the scratch refBackward writes the embedding
// gradient into; the policy's encoder half borrows dA1 for that.
type refPolicy struct {
	*Policy
	dH *mat.Dense
}

type refForward struct {
	Probs    *mat.Dense // N x C action distribution P (Figure 3's output)
	LogProbs *mat.Dense // N x C log-probabilities
	Value    float64

	enc    *Encoding
	z      *mat.Dense // policy-head input [h ; onehot(prev)]
	a1     *mat.Dense // post-ReLU hidden of the policy head
	logits *mat.Dense
	pooled *mat.Dense // value-head input
	v1     *mat.Dense
	vout   *mat.Dense
}

func refHeads(p *refPolicy, f *refForward, enc *Encoding, prev []int) *refForward {
	n, c, hidden := enc.h.Rows, p.Cfg.Chips, p.Cfg.Hidden
	if len(prev) != n {
		panic(fmt.Sprintf("rl: prev has %d entries for %d nodes", len(prev), n))
	}
	extra := p.Cfg.headExtra()
	chipFeat := enc.ctx.ChipFeat
	if extra != 0 && len(chipFeat) != extra {
		panic(fmt.Sprintf("rl: policy wants %d chip features, context has %d (build it with NewGraphContextForPackage)",
			extra, len(chipFeat)))
	}
	f.enc = enc
	f.z = mat.Resized(f.z, n, hidden+c+extra)
	for i := 0; i < n; i++ {
		row := f.z.Row(i)
		copy(row, enc.h.Row(i))
		tail := row[hidden:]
		clear(tail)
		if a := prev[i]; a >= 0 && a < c {
			tail[a] = 1
		}
		if extra != 0 {
			copy(tail[c:], chipFeat)
		}
	}
	f.a1 = mat.Resized(f.a1, n, hidden)
	p.fc1.Forward(f.a1, f.z)
	nn.ReLU(f.a1, f.a1)
	f.logits = mat.Resized(f.logits, n, c)
	p.fc2.Forward(f.logits, f.a1)
	f.Probs = mat.Resized(f.Probs, n, c)
	f.LogProbs = mat.Resized(f.LogProbs, n, c)
	softmaxRows(f.Probs, f.LogProbs, f.logits)

	// Value head over the pooled state: mean embedding plus the
	// normalized chip histogram of the previous assignment.
	pr := f.pooled.Row(0)
	copy(pr, enc.mean)
	hist := pr[hidden:]
	clear(hist)
	inv := 1 / float64(n)
	for _, a := range prev {
		if a >= 0 && a < c {
			hist[a] += inv
		}
	}
	p.vf1.Forward(f.v1, f.pooled)
	nn.ReLU(f.v1, f.v1)
	p.vf2.Forward(f.vout, f.v1)
	f.Value = f.vout.At(0, 0)
	return f
}

func refBackward(p *refPolicy, f *refForward, dLogits *mat.Dense, dValue float64) {
	n, hidden := f.enc.h.Rows, p.Cfg.Hidden
	// Policy head. Of the head-input gradient only the embedding columns
	// are needed (the one-hot and capacity columns are inputs, not
	// activations), so fc1 propagates through its embedding rows alone.
	p.dA1 = mat.Resized(p.dA1, n, hidden)
	p.fc2.Backward(f.a1, p.dA1, dLogits)
	nn.ReLUBackward(p.dA1, p.dA1, f.a1)
	p.fc1.Backward(f.z, nil, p.dA1)
	p.dH = mat.Resized(p.dH, n, hidden)
	mat.MulABT(p.dH, p.dA1, p.fc1Embed)
	// Value head.
	p.dVout.Data[0] = dValue
	p.vf2.Backward(f.v1, p.dV1, p.dVout)
	nn.ReLUBackward(p.dV1, p.dV1, f.v1)
	p.vf1.Backward(f.pooled, p.dPooled, p.dV1)
	// Gradient into the embeddings: policy rows plus the pooled mean.
	inv := 1 / float64(n)
	pr := p.dPooled.Row(0)[:hidden]
	for i := 0; i < n; i++ {
		for j, g := range pr {
			p.dH.Data[i*hidden+j] += g * inv
		}
	}
	p.sage.BackwardFrom(&f.enc.act, p.dH)
}

// requireBits fails unless got and want hold the same IEEE-754 bits.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%x), reference %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestHeadsMatchReference requires Heads and Backward to reproduce the
// reference bit for bit — distribution, value and every parameter gradient —
// on the paper's BERT/edge36 shape and on het4 with the capacity features
// (one of them set to 0, which the head must skip as a zero factor), for the
// start state (a memo miss, then hits, one of them spelled with chips >= C),
// a random assignment, and one mixing unassigned, valid and out-of-range
// chips.
//
// In its per-record mode it runs Backward's head half per state and the
// encoder half once, as a PPO minibatch does, against the reference's
// per-state backward: the encoder and fc1-embedding gradients are then
// summed over the states before the product, so every gradient must lie
// within 1e-12 of that parameter's reference gradient norm. A third case
// runs the paper's network depth and width (8 x 128), where rounding
// compounds through the layers, over ten states of a corpus graph.
//
// Every case runs at one worker and at eight, so that both the serial and
// the row-split stages of Heads and the head half are held to the
// reference; under -race the split checks that their row blocks write
// disjoint rows.
func TestHeadsMatchReference(t *testing.T) {
	het := mcm.Het4()
	bert := workload.BERT()
	hetCtx := NewGraphContextForPackage(bert, het)
	hetCtx.ChipFeat = append([]float64(nil), hetCtx.ChipFeat...)
	hetCtx.ChipFeat[1] = 0
	hetCfg := QuickConfig(het.Chips)
	hetCfg.ChipFeatures = true
	edge := mcm.Edge36()
	for _, tc := range []struct {
		name string
		cfg  Config
		ctx  *GraphContext
		// rounds repeats the five states, drawing fresh random ones.
		rounds int
	}{
		{"bert-edge36", QuickConfig(edge.Chips), NewGraphContextForPackage(bert, edge), 1},
		{"bert-het4-chipfeat", hetCfg, hetCtx, 1},
		{"corpus-edge36-paper-shape", DefaultConfig(edge.Chips), NewGraphContextForPackage(workload.CorpusGraphs(1)[0], edge), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, perRecord := range []bool{false, true} {
				mode := "per-state"
				if perRecord {
					mode = "per-record"
				}
				t.Run(mode, func(t *testing.T) {
					for _, workers := range []int{1, 8} {
						withWorkers(workers, func() { checkHeadsAgainstReference(t, tc.cfg, tc.ctx, tc.rounds, perRecord, workers) })
					}
				})
			}
		})
	}
}

// withWorkers runs fn under a temporary process-default worker count, the
// budget the head stages reserve their lanes from.
func withWorkers(w int, fn func()) {
	old := parallel.Default()
	parallel.SetDefault(w)
	defer parallel.SetDefault(old)
	fn()
}

// checkHeadsAgainstReference is one case and mode of TestHeadsMatchReference
// at one worker count.
func checkHeadsAgainstReference(t *testing.T, cfg Config, ctx *GraphContext, rounds int, perRecord bool, workers int) {
	rng := rand.New(rand.NewSource(21))
	pol := NewPolicy(cfg, rng)
	// Weights as training leaves them: NewPolicy's zero biases would
	// hide where Heads adds them.
	for _, param := range pol.Params() {
		for i := range param.Value.Data {
			param.Value.Data[i] += 0.1 * rng.NormFloat64()
		}
	}
	ref := &refPolicy{Policy: pol.Clone()}
	enc := pol.Encode(new(Encoding), ctx)
	refEnc := ref.Encode(new(Encoding), ctx)
	rf := &refForward{pooled: mat.New(1, cfg.Hidden+cfg.Chips), v1: mat.New(1, cfg.Hidden), vout: mat.New(1, 1)}

	type state struct {
		name string
		prev []int
	}
	n, c := ctx.G.NumNodes(), cfg.Chips
	var states []state
	for r := 0; r < rounds; r++ {
		random, mixed, beyond := make([]int, n), make([]int, n), make([]int, n)
		for i := range random {
			random[i] = rng.Intn(c)
			mixed[i] = rng.Intn(2*c+1) - 1
			beyond[i] = c + rng.Intn(3)
		}
		states = append(states,
			state{fmt.Sprintf("workers=%d start (miss)", workers), unassigned(n)},
			state{fmt.Sprintf("workers=%d random", workers), random},
			state{fmt.Sprintf("workers=%d start (hit)", workers), unassigned(n)},
			state{fmt.Sprintf("workers=%d mixed", workers), mixed},
			state{fmt.Sprintf("workers=%d start spelled >= C (hit)", workers), beyond},
		)
	}
	dLogits := mat.New(n, c)
	for i := range dLogits.Data {
		if rng.Intn(5) != 0 {
			dLogits.Data[i] = rng.NormFloat64()
		}
	}
	// A row of exact zeros, and one whose zeros are all negative: fc2's
	// input gradient leaves both kinds of factor out.
	clear(dLogits.Row(0))
	for j, v := range dLogits.Row(1) {
		if v == 0 {
			dLogits.Row(1)[j] = math.Copysign(0, -1)
		}
	}
	// Gradients accumulate across the states, so every one after the
	// first adds into non-zero accumulators.
	nn.ZeroGrads(pol.Params())
	nn.ZeroGrads(ref.Params())
	for _, s := range states {
		f := pol.Heads(enc, s.prev)
		want := refHeads(ref, rf, refEnc, s.prev)
		requireBits(t, s.name+": Probs", f.Probs.Data, want.Probs.Data)
		requireBits(t, s.name+": LogProbs", f.LogProbs.Data, want.LogProbs.Data)
		requireBits(t, s.name+": Value", []float64{f.Value}, []float64{want.Value})
		dValue := rng.NormFloat64()
		if perRecord {
			pol.backwardHeads(f, dLogits, nil, dValue)
		} else {
			pol.Backward(f, dLogits, dValue)
		}
		refBackward(ref, want, dLogits, dValue)
		if !perRecord {
			for i, param := range pol.Params() {
				requireBits(t, s.name+": grad "+param.Name, param.Grad.Data, ref.Params()[i].Grad.Data)
			}
		}
	}
	if !perRecord {
		return
	}
	pol.backwardEncoder(enc)
	worst := 0.0
	for i, param := range pol.Params() {
		want := ref.Params()[i].Grad.Data
		var sq, d float64
		for j, w := range want {
			sq += w * w
			d = max(d, math.Abs(param.Grad.Data[j]-w))
		}
		norm := math.Sqrt(sq)
		if !(d <= 1e-12*norm) {
			t.Fatalf("workers=%d, %d states, one encoder backward: grad %s differs from the reference by up to %.3g, norm %.3g",
				workers, len(states), param.Name, d, norm)
		}
		if norm > 0 {
			worst = max(worst, d/norm)
		}
	}
	t.Logf("workers=%d, %d states: max |Δgrad| / ‖grad‖ over parameters %.3g", workers, len(states), worst)
}
