// Package rl implements the paper's constrained reinforcement-learning
// partitioner (Sec. 4): a GraphSAGE encoder feeding a feed-forward policy
// head that emits, for every node, a probability distribution over chips
// (Figure 3), trained with PPO against rewards evaluated on
// solver-corrected partitions. Decoding is iterative but non-autoregressive
// (Eq. 7): the policy conditions on the whole previous assignment and
// refines it for a small number of iterations T.
//
//mcmlint:deterministic
package rl

import (
	"fmt"
	"math/rand"

	"mcmpart/internal/gnn"
	"mcmpart/internal/graph"
	"mcmpart/internal/mat"
	"mcmpart/internal/mcm"
	"mcmpart/internal/nn"
)

// Config shapes the policy network. The zero value is invalid; use
// DefaultConfig (paper-scale) or QuickConfig (bench-scale) and override.
type Config struct {
	// Chips is the action-space size C.
	Chips int
	// Hidden is the GraphSAGE and policy-head width (paper: 128).
	Hidden int
	// SAGELayers is the GraphSAGE depth (paper: 8).
	SAGELayers int
	// Iterations is T, the number of non-autoregressive refinement steps
	// per episode (Eq. 7).
	Iterations int
	// ChipFeatures widens the policy-head input with 2C per-chip capacity
	// features (normalized SRAM and peak-compute per chip, from
	// GraphContext.ChipFeat), so the policy can see which dies are big and
	// which are little on heterogeneous packages. Off by default: the
	// paper's homogeneous packages carry no information there, and the
	// network shape stays bit-identical to the pre-heterogeneity policy.
	ChipFeatures bool
}

// headExtra returns the extra policy-head input width of optional features.
func (c Config) headExtra() int {
	if c.ChipFeatures {
		return 2 * c.Chips
	}
	return 0
}

// DefaultConfig returns the paper's network shape for a package with the
// given chip count: 8 GraphSAGE layers of width 128, a 2-layer policy head
// of the same width.
func DefaultConfig(chips int) Config {
	return Config{Chips: chips, Hidden: 128, SAGELayers: 8, Iterations: 2}
}

// QuickConfig returns a scaled-down shape for tests and default benchmark
// runs on one CPU core (see DESIGN.md for the scale knobs).
func QuickConfig(chips int) Config {
	return Config{Chips: chips, Hidden: 32, SAGELayers: 2, Iterations: 2}
}

// Policy is the trainable network: GraphSAGE encoder, a two-layer policy
// head over [node embedding ; previous assignment one-hot], and a two-layer
// value head over the pooled state.
//
// Besides its weights a policy owns the scratch of one evaluation in
// flight: the Forward it returns and the temporaries of Backward are reused
// by the next call, so a training loop allocates nothing per transition.
// Within one call that scratch is written by disjoint row blocks, which
// Heads and Backward may run on several workers (mat.RowBlocks); across
// calls a policy serves one caller at a time — rollout workers each run on
// a Clone.
type Policy struct {
	Cfg Config

	sage     *gnn.SAGE
	fc1, fc2 *nn.Linear
	vf1, vf2 *nn.Linear
	params   []*nn.Param
	// fc1Embed and fc1EmbedGrad view the rows of fc1's weights and their
	// gradient that multiply the embedding columns of the head input: the
	// first Hidden rows. The rows after them (one per chip, then one per
	// capacity feature) meet inputs that are 1 or a per-package constant.
	fc1Embed, fc1EmbedGrad *mat.Dense

	enc Encoding // the record behind Forward, the one-call form of Encode + Heads
	fwd Forward
	// The operands of the row-block stages of Heads and backwardHeads beyond
	// the policy's own scratch, set before each fan-out so that the fan-out
	// captures only the policy.
	heads headsStage
	grad  gradStage
	// Backward scratch. dA1 holds a transition's policy-head gradient in
	// the head half and, idle in between, the embedding gradient in the
	// encoder half.
	dA1, dV1, dPooled, dVout *mat.Dense
	// SAMPLE-mode scratch, overwritten whole by every sample: the mixed
	// matrix handed to the solver, and a zero-shot plan's raw action draw,
	// which the next Heads reads.
	mixed [][]float64
	drawn []int
}

// NewPolicy builds a policy for the given configuration. A nil rng leaves
// the weights zero, for a policy whose weights are about to be copied in.
func NewPolicy(cfg Config, rng *rand.Rand) *Policy {
	if cfg.Chips <= 0 || cfg.Hidden <= 0 || cfg.SAGELayers <= 0 || cfg.Iterations <= 0 {
		panic(fmt.Sprintf("rl: invalid config %+v", cfg))
	}
	p := &Policy{Cfg: cfg}
	p.sage = gnn.NewSAGE(gnn.FeatureDim, cfg.Hidden, cfg.SAGELayers, nil)
	in := cfg.Hidden + cfg.Chips
	// The policy head additionally sees the per-chip capacity features on
	// heterogeneous packages; the value head pools over embeddings and the
	// chip histogram only (capacities are constant per package, so they
	// carry no per-state information for the baseline).
	p.fc1 = nn.NewLinear("policy.fc1", in+cfg.headExtra(), cfg.Hidden, nil)
	p.fc2 = nn.NewLinear("policy.fc2", cfg.Hidden, cfg.Chips, nil)
	p.vf1 = nn.NewLinear("value.fc1", in, cfg.Hidden, nil)
	p.vf2 = nn.NewLinear("value.fc2", cfg.Hidden, 1, nil)
	p.params = append(p.params, p.sage.Params()...)
	p.params = append(p.params, p.fc1.Params()...)
	p.params = append(p.params, p.fc2.Params()...)
	p.params = append(p.params, p.vf1.Params()...)
	p.params = append(p.params, p.vf2.Params()...)
	p.fc1Embed = mat.FromSlice(cfg.Hidden, cfg.Hidden, p.fc1.W.Value.Data[:cfg.Hidden*cfg.Hidden])
	p.fc1EmbedGrad = mat.FromSlice(cfg.Hidden, cfg.Hidden, p.fc1.W.Grad.Data[:cfg.Hidden*cfg.Hidden])
	// The value head's buffers have fixed shapes; the per-node ones are
	// sized to the graph on use.
	p.fwd.pooled, p.fwd.v1, p.fwd.vout = mat.New(1, in), mat.New(1, cfg.Hidden), mat.New(1, 1)
	p.dPooled, p.dV1, p.dVout = mat.New(1, in), mat.New(1, cfg.Hidden), mat.New(1, 1)
	if rng != nil {
		p.init(rng)
	}
	return p
}

// init draws every weight from rng, encoder first, then the policy and the
// value head layer by layer, and zeroes every bias: the one order a policy
// from rng is drawn in, so that a policy re-drawn from a stream holds what
// a new one from that stream does.
func (p *Policy) init(rng *rand.Rand) {
	p.sage.Init(rng)
	p.fc1.Init(rng)
	p.fc2.Init(rng)
	p.vf1.Init(rng)
	p.vf2.Init(rng)
}

// Params returns all trainable parameters.
func (p *Policy) Params() []*nn.Param { return p.params }

// Clone returns an independent policy with identical weights and its own
// scratch.
func (p *Policy) Clone() *Policy {
	c := NewPolicy(p.Cfg, nil)
	c.copyWeights(p)
	return c
}

// copyWeights overwrites p's weights with those of src, a policy of the
// same Config.
func (p *Policy) copyWeights(src *Policy) {
	for i, param := range p.params {
		param.Value.CopyFrom(src.params[i].Value)
	}
}

// Snapshot captures the policy weights (a pre-training checkpoint).
func (p *Policy) Snapshot() nn.Snapshot { return nn.TakeSnapshot(p.params) }

// Restore loads a checkpoint taken from a policy with the same Config.
func (p *Policy) Restore(s nn.Snapshot) error { return s.Restore(p.params) }

// GraphContext caches the per-graph tensors the policy needs: adjacency and
// static features, plus the optional per-chip capacity features of the
// target package. Build one per graph and reuse it across episodes.
type GraphContext struct {
	G   *graph.Graph
	Adj *gnn.Adjacency
	X   *mat.Dense
	// ChipFeat is the 2C-vector of per-chip capacity features consumed by
	// policies with Config.ChipFeatures: [SRAM_0..SRAM_{C-1},
	// FLOPs_0..FLOPs_{C-1}], each normalized by the package maximum so the
	// biggest die reads 1. Nil for package-agnostic contexts.
	ChipFeat []float64
}

// NewGraphContext precomputes the encoder inputs for a graph.
func NewGraphContext(g *graph.Graph) *GraphContext {
	return &GraphContext{G: g, Adj: gnn.BuildAdjacency(g), X: gnn.Features(g)}
}

// NewGraphContextForPackage precomputes the encoder inputs for a graph
// targeted at a concrete package, including the per-chip capacity features
// heterogeneity-aware policies (Config.ChipFeatures) consume.
func NewGraphContextForPackage(g *graph.Graph, pkg *mcm.Package) *GraphContext {
	ctx := NewGraphContext(g)
	c := pkg.Chips
	feat := make([]float64, 2*c)
	maxSRAM := float64(pkg.ChipSRAM(0))
	maxFLOPs := pkg.ChipFLOPs(0)
	for i := 1; i < c; i++ {
		if s := float64(pkg.ChipSRAM(i)); s > maxSRAM {
			maxSRAM = s
		}
		if f := pkg.ChipFLOPs(i); f > maxFLOPs {
			maxFLOPs = f
		}
	}
	for i := 0; i < c; i++ {
		feat[i] = float64(pkg.ChipSRAM(i)) / maxSRAM
		feat[c+i] = pkg.ChipFLOPs(i) / maxFLOPs
	}
	ctx.ChipFeat = feat
	return ctx
}

// Encoding is the activation record of one encoder pass over a graph: the
// node embeddings, their mean, and what the encoder needs to backpropagate
// through them. The embedding depends on the graph and the weights but not
// on the previous assignment (Figure 3: the feature network feeds the
// policy network, and only the latter sees y(t-1) in Eq. 7), so one record
// serves every Heads evaluation made while the weights stay as they are.
//
// A record belongs to whoever called Encode and is valid for exactly as
// long as the weights it was computed from: hold it within a scope that
// contains no optimizer step and no Restore — a rollout batch, a PPO
// minibatch, one ZeroShot call, a Deployment kept with the weights that
// made it — and encode again in the next. The zero value is ready for
// Encode, and re-encoding reuses its buffers.
//
// The backward pass is split the same way. Everything below the policy
// head's first layer is linear in that layer's gradient, so the head half
// of Backward, run once per transition, only adds the transition's share of
// the embedding gradient to the record, and the encoder half, run once per
// record before the weights change, backpropagates the sum through fc1's
// embedding rows and the encoder in one pass. Encode panics on a record
// whose sum the encoder half has not yet consumed: re-encoding would drop
// those transitions' encoder gradients.
type Encoding struct {
	ctx  *GraphContext
	act  gnn.Activations
	h    *mat.Dense // N x Hidden node embeddings, owned by act
	mean []float64  // column means of h: the value head's pooled embedding
	// hW is h times the embedding rows of the policy head's first layer:
	// the part of that layer's pre-activation no state changes.
	hW *mat.Dense
	// startProbs and startLogProbs are the action distribution of the
	// all-unassigned state (every episode's t=0), filled by the first Heads
	// call on it when started is false.
	startProbs, startLogProbs *mat.Dense
	started                   bool
	// dA1 and dPooled sum, over the pending transitions evaluated on the
	// record, the gradient of the policy head's first-layer pre-activation
	// (N x Hidden) and the value head's pooled-embedding gradient (Hidden).
	// pending counts those transitions; the encoder half resets it.
	dA1     *mat.Dense
	dPooled []float64
	pending int
}

// Forward is one policy evaluation on the state (graph, previous
// assignment). prev has one entry per node; -1 means unassigned (the state
// at t=0). It holds everything Backward needs — prev included, which it
// keeps rather than copies — lives in the policy's scratch, and stays valid
// until the next evaluation on that policy; copy out what must outlive it.
type Forward struct {
	Probs    *mat.Dense // N x C action distribution P (Figure 3's output)
	LogProbs *mat.Dense // N x C log-probabilities
	Value    float64

	enc    *Encoding
	prev   []int
	a1     *mat.Dense // post-ReLU hidden of the policy head
	pooled *mat.Dense // value-head input
	v1     *mat.Dense
	vout   *mat.Dense
}

// Encode runs the encoder over ctx, recording the pass in enc, and returns
// enc.
func (p *Policy) Encode(enc *Encoding, ctx *GraphContext) *Encoding {
	if enc.pending != 0 {
		panic(fmt.Sprintf("rl: Encode over a record holding the head gradients of %d transitions its encoder backward has not consumed", enc.pending))
	}
	enc.ctx = ctx
	enc.h = p.sage.Encode(&enc.act, ctx.Adj, ctx.X)
	if len(enc.mean) != p.Cfg.Hidden {
		enc.mean = make([]float64, p.Cfg.Hidden)
	}
	clear(enc.mean)
	inv := 1 / float64(enc.h.Rows)
	for i := 0; i < enc.h.Rows; i++ {
		for j, v := range enc.h.Row(i) {
			enc.mean[j] += v * inv
		}
	}
	enc.hW = mat.Resized(enc.hW, enc.h.Rows, p.Cfg.Hidden)
	mat.Mul(enc.hW, enc.h, p.fc1Embed)
	enc.started = false
	return enc
}

// Heads evaluates the policy and value heads on the state (enc's graph,
// prev). The weights must be the ones enc was encoded under.
//
// The first layer of the policy head sees [h ; onehot(prev) ; ChipFeat],
// and enc holds its product with h: per node Heads adds the weight row of
// the assigned chip, the capacity features' rows (zeros skipped) and the
// bias, in that order — the k-ascending sequence of mat.Mul over the whole
// input, since 1·w is w. The all-unassigned state's distribution is the
// same for every episode on enc, so it is computed once.
//
// The policy head is one row-block stage (headsRows), fanned out once under
// mat.RowBlocks' rule and sized by its fc2 product: every node's row runs
// the first layer, the ReLU, fc2 and the softmax without reading another's.
func (p *Policy) Heads(enc *Encoding, prev []int) *Forward {
	n, c, hidden := enc.h.Rows, p.Cfg.Chips, p.Cfg.Hidden
	if len(prev) != n {
		panic(fmt.Sprintf("rl: prev has %d entries for %d nodes", len(prev), n))
	}
	f := &p.fwd
	f.enc, f.prev = enc, prev
	f.a1 = mat.Resized(f.a1, n, hidden)
	f.Probs = mat.Resized(f.Probs, n, c)
	f.LogProbs = mat.Resized(f.LogProbs, n, c)
	start := true
	for _, a := range prev {
		if a >= 0 && a < c {
			start = false
			break
		}
	}
	p.heads = headsStage{chipFeat: p.chipFeat(enc.ctx), memo: start && enc.started}
	flops := n * hidden * c
	if p.heads.memo {
		flops = 0 // the first layer alone: what the serial build cost before
	}
	mat.RowBlocks(n, flops, (*Policy).headsRows, p)
	if start && !enc.started {
		enc.startProbs = mat.Resized(enc.startProbs, n, c)
		enc.startLogProbs = mat.Resized(enc.startLogProbs, n, c)
		copy(enc.startProbs.Data, f.Probs.Data)
		copy(enc.startLogProbs.Data, f.LogProbs.Data)
		enc.started = true
	}

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

// headsStage is what headsRows reads beyond the policy's evaluation in
// flight (p.fwd).
type headsStage struct {
	chipFeat []float64
	// memo: the state is the all-unassigned one and enc holds its
	// distribution, so the rows need only the first layer (Backward's a1).
	memo bool
}

// headsRows runs the policy head for nodes [lo, hi): the first layer,
// completed from enc.hW in the order Heads documents, the ReLU, then fc2's
// product in mat.Mul's per-row sequence, its bias, and the softmax and
// log-softmax — or, on a memo hit, a copy of the start state's rows.
func (p *Policy) headsRows(_, lo, hi int) {
	s, f := &p.heads, &p.fwd
	enc := f.enc
	c, hidden := p.Cfg.Chips, p.Cfg.Hidden
	w1, b1, b2 := p.fc1.W.Value.Data, p.fc1.B.Value.Data, p.fc2.B.Value.Data
	for i := lo; i < hi; i++ {
		row := f.a1.Row(i)
		copy(row, enc.hW.Row(i))
		if a := f.prev[i]; a >= 0 && a < c {
			for j, w := range w1[(hidden+a)*hidden:][:len(row)] {
				row[j] += w
			}
		}
		for q, v := range s.chipFeat {
			if v != 0 {
				for j, w := range w1[(hidden+c+q)*hidden:][:len(row)] {
					row[j] += v * w
				}
			}
		}
		for j, b := range b1[:len(row)] {
			row[j] += b
		}
		nn.ReLURow(row, row)
	}
	if s.memo {
		copy(f.Probs.Data[lo*c:hi*c], enc.startProbs.Data[lo*c:hi*c])
		copy(f.LogProbs.Data[lo*c:hi*c], enc.startLogProbs.Data[lo*c:hi*c])
		return
	}
	// The logits go into LogProbs, which the softmax overwrites.
	clear(f.LogProbs.Data[lo*c : hi*c])
	mat.MulAddRows(f.LogProbs, f.a1, p.fc2.W.Value, lo, hi)
	for i := lo; i < hi; i++ {
		lr := f.LogProbs.Row(i)
		for j, b := range b2[:len(lr)] {
			lr[j] += b
		}
		nn.SoftmaxRow(f.Probs.Row(i), lr, lr)
	}
}

// chipFeat returns the capacity features the policy head reads from ctx:
// none unless the policy was built with Config.ChipFeatures.
func (p *Policy) chipFeat(ctx *GraphContext) []float64 {
	extra := p.Cfg.headExtra()
	if extra == 0 {
		return nil
	}
	if len(ctx.ChipFeat) != extra {
		panic(fmt.Sprintf("rl: policy wants %d chip features, context has %d (build it with NewGraphContextForPackage)",
			extra, len(ctx.ChipFeat)))
	}
	return ctx.ChipFeat
}

// Forward runs the whole network, encoder and heads, on one state. Loops
// that evaluate many states of one graph under fixed weights call Encode
// once and Heads per state instead.
func (p *Policy) Forward(ctx *GraphContext, prev []int) *Forward {
	return p.Heads(p.Encode(&p.enc, ctx), prev)
}

// Backward accumulates parameter gradients for a forward pass given the
// loss gradient with respect to the logits (N x C) and the value output.
// f must be the policy's latest evaluation, and the weights those of f's
// Encoding. It is the head half and the encoder half back to back; a loop
// over many states of one graph (a PPO minibatch) runs the head half per
// state and the encoder half once per record, which sums the fc1-embedding
// and encoder gradients over the states before the product.
func (p *Policy) Backward(f *Forward, dLogits *mat.Dense, dValue float64) {
	p.backwardHeads(f, dLogits, nil, dValue)
	p.backwardEncoder(f.enc)
}

// backwardHeads is Backward's head half: it accumulates the gradients of
// fc2, of fc1's one-hot and capacity rows and bias, and of the value head,
// and adds what the embeddings receive — the policy head's first-layer
// gradient and the pooled-embedding gradient — to f's record. With a
// non-nil loss it first writes dLogits (N x C) from it; with nil, dLogits
// holds the gradient already.
//
// The per-node part is one row-block stage (gradRows), fanned out once
// under mat.RowBlocks' rule; every gradient that sums over nodes — fc2's
// weights and bias, fc1's one-hot and capacity rows and bias — is then a
// node-ascending pass, as the whole-matrix kernels summed it.
func (p *Policy) backwardHeads(f *Forward, dLogits *mat.Dense, loss *logitGrad, dValue float64) {
	enc := f.enc
	n, c, hidden := enc.h.Rows, p.Cfg.Chips, p.Cfg.Hidden
	p.dA1 = mat.Resized(p.dA1, n, hidden)
	first := enc.pending == 0
	if first {
		enc.dA1 = mat.Resized(enc.dA1, n, hidden)
	}
	p.grad = gradStage{f: f, dLogits: dLogits, loss: loss, first: first}
	mat.RowBlocks(n, n*c*hidden, (*Policy).gradRows, p)
	p.fc2.Backward(f.a1, nil, dLogits)
	// fc1's weight gradient, row block by row block of its input
	// [h ; onehot(prev) ; ChipFeat]: the embedding rows are the encoder
	// half's product, and the rest, whose inputs are 1 or a per-package
	// constant, take each node's dA1 row in ascending node order — the
	// sequence mat.MulATBAcc over the whole input performs.
	g := p.fc1.W.Grad.Data
	chipFeat := p.chipFeat(enc.ctx)
	for i := 0; i < n; i++ {
		d := p.dA1.Row(i)
		if a := f.prev[i]; a >= 0 && a < c {
			for j, x := range d {
				g[(hidden+a)*hidden+j] += x
			}
		}
		for q, v := range chipFeat {
			if v != 0 {
				for j, x := range d {
					g[(hidden+c+q)*hidden+j] += v * x
				}
			}
		}
	}
	p.dA1.ColSums(p.fc1.B.Grad.Data)
	// Value head.
	p.dVout.Data[0] = dValue
	p.vf2.Backward(f.v1, p.dV1, p.dVout)
	nn.ReLUBackward(p.dV1, p.dV1, f.v1)
	p.vf1.Backward(f.pooled, p.dPooled, p.dV1)
	// The pooled embedding's share, summed on the record like dA1's.
	pr := p.dPooled.Row(0)[:hidden]
	if first {
		enc.dPooled = append(enc.dPooled[:0], pr...)
	} else {
		for j, x := range pr {
			enc.dPooled[j] += x
		}
	}
	enc.pending++
}

// gradStage is what gradRows reads beyond the policy's scratch.
type gradStage struct {
	f       *Forward
	dLogits *mat.Dense
	loss    *logitGrad // nil: dLogits is given
	// first: no transition is pending on the record, so its dA1 sum starts
	// as a copy of this one's — a lone transition reaches the encoder half
	// with its own bits.
	first bool
}

// gradRows runs the head half's per-node stage for nodes [lo, hi): the
// logit gradient, when the stage has a loss, then fc2's input gradient
// through the ReLU — dLogits·W2ᵀ where a1 > 0 and +0 elsewhere, the
// products the mask discards never formed — and that row's addition to the
// record's dA1 sum.
func (p *Policy) gradRows(_, lo, hi int) {
	s := &p.grad
	f, hidden := s.f, p.Cfg.Hidden
	if s.loss != nil {
		s.loss.rows(s.dLogits, f, lo, hi)
	}
	mat.MulABTMaskRows(p.dA1, s.dLogits, p.fc2.W.Value, f.a1, lo, hi)
	d, sum := p.dA1.Data[lo*hidden:hi*hidden], f.enc.dA1.Data[lo*hidden:hi*hidden]
	if s.first {
		copy(sum, d)
		return
	}
	for j, x := range d {
		sum[j] += x
	}
}

// backwardEncoder is Backward's encoder half: it backpropagates the head
// gradients summed on enc through fc1's embedding rows and the encoder, and
// leaves enc with none pending. The weights must still be those enc was
// encoded under.
func (p *Policy) backwardEncoder(enc *Encoding) {
	if enc.pending == 0 {
		return
	}
	n, hidden := enc.h.Rows, p.Cfg.Hidden
	mat.MulATBAcc(p.fc1EmbedGrad, enc.h, enc.dA1)
	// Of the head-input gradient only the embedding columns are needed (the
	// one-hot and capacity columns are inputs, not activations): policy
	// rows plus the pooled mean.
	dH := mat.Resized(p.dA1, n, hidden)
	p.dA1 = dH
	mat.MulABT(dH, enc.dA1, p.fc1Embed)
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		for j, g := range enc.dPooled {
			dH.Data[i*hidden+j] += g * inv
		}
	}
	p.sage.BackwardFrom(&enc.act, dH)
	enc.pending = 0
}

// sampleActionsInto draws one chip per node from the distribution into dst,
// which is reused when it has one entry per node and replaced otherwise; nil
// is a valid start.
func sampleActionsInto(dst []int, probs *mat.Dense, rng *rand.Rand) []int {
	actions := dst
	if len(actions) != probs.Rows {
		actions = make([]int, probs.Rows)
	}
	for i := range actions {
		row := probs.Row(i)
		x := rng.Float64()
		a := len(row) - 1
		for c, pc := range row {
			x -= pc
			if x <= 0 {
				a = c
				break
			}
		}
		actions[i] = a
	}
	return actions
}

// JointLogProb returns the log-probability of the joint assignment under
// the per-node distributions: sum_i log P[i][y_i].
func JointLogProb(logProbs *mat.Dense, actions []int) float64 {
	var sum float64
	for i, a := range actions {
		sum += logProbs.At(i, a)
	}
	return sum
}

// MeanEntropy returns the average per-node entropy of the distribution.
func MeanEntropy(probs, logProbs *mat.Dense) float64 {
	var h float64
	for i, p := range probs.Data {
		if p > 0 {
			h -= p * logProbs.Data[i]
		}
	}
	return h / float64(probs.Rows)
}

// MixedProbRows writes the policy distribution blended with uniform,
// (1-eps) * P + eps/C per entry, into dst and returns it. dst is reused when
// it already has P's shape (a loop passes back what the previous call
// returned) and replaced by fresh rows otherwise; nil is a valid start.
func MixedProbRows(dst [][]float64, probs *mat.Dense, eps float64) [][]float64 {
	n, c := probs.Rows, probs.Cols
	if len(dst) != n || (n > 0 && len(dst[0]) != c) {
		dst = make([][]float64, n)
		flat := make([]float64, n*c)
		for i := range dst {
			dst[i] = flat[i*c : (i+1)*c]
		}
	}
	u := eps / float64(c)
	for i, row := range dst {
		src := probs.Row(i)
		for j := range row {
			row[j] = (1-eps)*src[j] + u
		}
	}
	return dst
}

// unassigned returns the t=0 state: every node unassigned.
func unassigned(n int) []int {
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	return prev
}
