package gnn

import (
	"fmt"
	"math/rand"

	"mcmpart/internal/mat"
	"mcmpart/internal/nn"
)

// SAGE is a stack of GraphSAGE layers with mean aggregation:
//
//	h^{l+1} = ReLU(h^l W_self + mean_{u in N(v)} h^l_u W_neigh + b)
//
// Encode records all intermediates in an Activations so Backward can
// accumulate exact gradients for end-to-end training with the policy head.
type SAGE struct {
	InDim, Hidden, Depth int

	wSelf, wNeigh, bias []*nn.Param

	// act is the record behind Forward/Backward, the one-record form of
	// Encode/BackwardFrom.
	act Activations
	// Backprop scratch, resized to the record's node count per call.
	dz, dIn, dNeigh *mat.Dense
}

// Activations is the record of one encoder pass: what the encoder computed
// on the way to the embeddings and what BackwardFrom needs to turn an
// embedding gradient into parameter gradients. It belongs to the caller of
// Encode, which decides how long it lives; it describes the weights as they
// were when it was filled, so it must not be used across a weight update.
// The zero value is ready for Encode, and re-encoding reuses its buffers.
type Activations struct {
	adj  *Adjacency
	x    *mat.Dense   // layer 0 input (the caller's, not copied)
	aggs []*mat.Dense // aggregated neighbor features per layer
	outs []*mat.Dense // post-activation output per layer
}

// NewSAGE builds a GraphSAGE encoder with the given input width, hidden
// width and depth. The paper's default is depth 8, hidden 128. A nil rng
// leaves the weights zero, for an encoder whose weights are about to be
// copied in.
func NewSAGE(inDim, hidden, depth int, rng *rand.Rand) *SAGE {
	if depth < 1 {
		panic(fmt.Sprintf("gnn: depth %d < 1", depth))
	}
	s := &SAGE{InDim: inDim, Hidden: hidden, Depth: depth}
	for l := 0; l < depth; l++ {
		in := hidden
		if l == 0 {
			in = inDim
		}
		//mcmlint:ignore hotalloc construction: Depth iterations once per encoder, never per pass
		name := fmt.Sprintf("sage%d", l)
		s.wSelf = append(s.wSelf, &nn.Param{Name: name + ".self", Value: mat.New(in, hidden), Grad: mat.New(in, hidden)})
		s.wNeigh = append(s.wNeigh, &nn.Param{Name: name + ".neigh", Value: mat.New(in, hidden), Grad: mat.New(in, hidden)})
		s.bias = append(s.bias, &nn.Param{Name: name + ".bias", Value: mat.New(1, hidden), Grad: mat.New(1, hidden)})
	}
	if rng != nil {
		s.Init(rng)
	}
	return s
}

// Init draws every layer's weights from rng (Xavier, layer by layer, the
// self weights before the neighbor weights) and zeroes the biases: an
// encoder as NewSAGE builds it from rng.
func (s *SAGE) Init(rng *rand.Rand) {
	for l := 0; l < s.Depth; l++ {
		s.wSelf[l].Value.XavierInit(rng)
		s.wNeigh[l].Value.XavierInit(rng)
		s.bias[l].Value.Zero()
	}
}

// Params returns all trainable parameters.
func (s *SAGE) Params() []*nn.Param {
	out := make([]*nn.Param, 0, 3*s.Depth)
	for l := 0; l < s.Depth; l++ {
		out = append(out, s.wSelf[l], s.wNeigh[l], s.bias[l])
	}
	return out
}

// in returns the input of layer l: the features, or the layer below.
func (a *Activations) in(l int) *mat.Dense {
	if l == 0 {
		return a.x
	}
	return a.outs[l-1]
}

// Encode encodes the node features x (N x InDim) over the adjacency,
// recording the pass in act, and returns the N x Hidden embedding matrix.
// The returned matrix is owned by act and valid until act is encoded again.
func (s *SAGE) Encode(act *Activations, adj *Adjacency, x *mat.Dense) *mat.Dense {
	n := x.Rows
	if len(act.outs) != s.Depth {
		act.aggs = make([]*mat.Dense, s.Depth)
		act.outs = make([]*mat.Dense, s.Depth)
	}
	act.adj, act.x = adj, x
	h := x
	for l := 0; l < s.Depth; l++ {
		agg := mat.Resized(act.aggs[l], n, h.Cols)
		out := mat.Resized(act.outs[l], n, s.Hidden)
		act.aggs[l], act.outs[l] = agg, out
		adj.aggregate(agg, h)
		mat.Mul(out, h, s.wSelf[l].Value)
		mat.MulAdd(out, agg, s.wNeigh[l].Value)
		out.AddRowVector(s.bias[l].Value.Data)
		nn.ReLU(out, out)
		h = out
	}
	return h
}

// BackwardFrom accumulates parameter gradients given the gradient of the
// loss with respect to the embeddings act recorded. Any number of backward
// passes may follow one Encode, as long as the weights have not changed in
// between. dOut is only read.
func (s *SAGE) BackwardFrom(act *Activations, dOut *mat.Dense) {
	n := act.x.Rows
	s.dz = mat.Resized(s.dz, n, s.Hidden)
	s.dIn = mat.Resized(s.dIn, n, s.Hidden)
	s.dNeigh = mat.Resized(s.dNeigh, n, s.Hidden)
	d := dOut
	for l := s.Depth - 1; l >= 0; l-- {
		// Through the ReLU.
		nn.ReLUBackward(s.dz, d, act.outs[l])
		// Parameter gradients, accumulated in place (fused aᵀ@b += form).
		mat.MulATBAcc(s.wSelf[l].Grad, act.in(l), s.dz)
		mat.MulATBAcc(s.wNeigh[l].Grad, act.aggs[l], s.dz)
		s.dz.ColSums(s.bias[l].Grad.Data)
		if l == 0 {
			return // input features are static; no gradient needed
		}
		// Input gradient: dIn = dz @ Wselfᵀ + Aᵀ(dz @ Wneighᵀ). Layers
		// above the first are Hidden wide on both sides, and d is dead once
		// dz is formed, so one dIn serves every layer.
		mat.MulABT(s.dIn, s.dz, s.wSelf[l].Value)
		mat.MulABT(s.dNeigh, s.dz, s.wNeigh[l].Value)
		act.adj.scatterAdd(s.dIn, s.dNeigh)
		d = s.dIn
	}
}

// Forward is Encode into the encoder's own record: the returned matrix is
// valid until the next Forward.
func (s *SAGE) Forward(adj *Adjacency, x *mat.Dense) *mat.Dense {
	return s.Encode(&s.act, adj, x)
}

// Backward is BackwardFrom the encoder's own record; it must follow a
// Forward.
func (s *SAGE) Backward(dOut *mat.Dense) {
	s.BackwardFrom(&s.act, dOut)
}
