package rl

import (
	"unsafe"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/mat"
)

// The estimates of what the per-graph objects a planner keeps from one
// plan to the next hold (Deployment.Bytes, Env.Bytes, Policy.Bytes,
// Trainer.Bytes), from shapes: the graph's node count N, the chip count C
// and the network's widths. A store bounded by bytes weighs what it keeps
// by them.

// heapObject is what the heap holds for one object of size bytes: above
// 32 KiB the allocator hands out whole 8 KiB pages.
func heapObject(size int64) int64 {
	const page = 8 << 10
	if size <= 32<<10 {
		return size
	}
	return (size + page - 1) / page * page
}

// words is what the heap holds for a slice of k 8-byte words.
func words(k int64) int64 { return heapObject(8 * k) }

// partBytes is what a partitioner on an n-node graph over chips chips
// holds once it has sampled: the segmenter's tables, the larger of the two
// partitioners' — a prefix-sum row, the C-1 drawn boundaries, and one
// weight slot of (C-1) x (N-1) boundary weights per matrix it keeps. FIX
// mode keeps one; SAMPLE mode two, each with the N x C matrix it was built
// from, and no term memo, which a policy's matrices never build (DESIGN.md
// §1.2).
func partBytes(n, chips int64, sampleMode bool) int64 {
	b := words(n) + words(chips-1)
	if sampleMode {
		return b + 2*(words((chips-1)*(n-1))+words(n*chips))
	}
	return b + words((chips-1)*(n-1))
}

// weightBytes is every weight of p and its gradient.
func (p *Policy) weightBytes() int64 {
	var b int64
	for _, param := range p.params {
		b += words(int64(len(param.Value.Data))) + words(int64(len(param.Grad.Data)))
	}
	return b
}

// Bytes estimates what p holds: every weight and its gradient, the head
// scratch Heads sized (N x Hidden activations, N x C probabilities and
// log-probabilities), and the N x C mixed matrix with its row headers and
// the N-entry draw of SAMPLE mode.
func (p *Policy) Bytes() int64 {
	b := p.weightBytes() + words(int64(cap(p.drawn)))
	for _, m := range []*mat.Dense{p.fwd.a1, p.fwd.Probs, p.fwd.LogProbs} {
		if m != nil {
			b += words(int64(cap(m.Data)))
		}
	}
	if n := int64(len(p.mixed)); n > 0 {
		b += words(n*int64(len(p.mixed[0]))) + heapObject(n*int64(unsafe.Sizeof([]float64(nil))))
	}
	return b
}

// recordBytes is what an activation record Encode and Heads filled holds:
// every encoder layer's aggregate and output, the embedding product, the
// start distribution and its logarithm, and the mean embedding; with
// trained, also the head gradients the backward pass sums on it. A record
// never encoded holds nothing.
func (p *Policy) recordBytes(enc *Encoding, trained bool) int64 {
	if enc.ctx == nil {
		return 0
	}
	n, hidden := int64(enc.ctx.G.NumNodes()), int64(p.Cfg.Hidden)
	b := words(n*int64(enc.ctx.X.Cols)) + int64(2*p.Cfg.SAGELayers-1)*words(n*hidden) +
		words(n*hidden) + 2*words(n*int64(p.Cfg.Chips)) + 8*hidden
	if trained {
		b += words(n*hidden) + 8*hidden
	}
	return b
}

// Bytes estimates what ctx holds: its graph — nodes, their names, edges,
// and the adjacency and layout memoized on it — and those of the encoder's
// CSR adjacency, features and capacity features it has (a search's context
// has none).
func (ctx *GraphContext) Bytes() int64 {
	g := ctx.G
	n, e := int64(g.NumNodes()), int64(g.NumEdges())
	b := n*int64(unsafe.Sizeof(graph.Node{})) + e*int64(unsafe.Sizeof(graph.Edge{})) + 40*n + 8*e
	for _, node := range g.Nodes() {
		b += int64(len(node.Name))
	}
	if ctx.Adj != nil {
		b += 12*n + 8*e
	}
	if ctx.X != nil {
		b += 8 * int64(len(ctx.X.Data))
	}
	return b + 8*int64(len(ctx.ChipFeat))
}

// Bytes estimates what e holds besides its context once it is Reset: its
// partitioner's tables — what a segmenter holds, the larger segmenter's
// tables in the mode e samples in for the CP solver — the probability
// matrix and move scratch a search took (ProbMatrix, MoveScratch), the
// sample and best buffers, and History's room.
func (e *Env) Bytes() int64 {
	n, chips := int64(e.Ctx.G.NumNodes()), int64(e.Part.Chips())
	b := partBytes(n, chips, e.UseSampleMode)
	if sg, ok := e.Part.(*cpsolver.Segmenter); ok {
		b = sg.Bytes()
	}
	if e.probs != nil {
		b += words(n*chips) + heapObject(n*int64(unsafe.Sizeof([]float64(nil))))
	}
	for _, k := range []int{cap(e.moved), cap(e.saved), cap(e.drawn), cap(e.best), cap(e.History)} {
		b += words(int64(k))
	}
	return b
}

// Bytes estimates what t holds between runs, once it has trained on its
// environments: its policy (Policy.Bytes) with Adam's two moments of the
// weights' shapes, its backward scratch — the first layer's and the
// encoder's three N x Hidden gradients, the logit gradient — an
// activation record per environment, the batch buffers, the step buffers
// every (episode, step) draws into, and each rollout worker's clone, records
// and partitioner replicas. Per-node scratch is sized to the largest graph.
// It counts neither the environments (Env.Bytes) nor their contexts.
func (t *Trainer) Bytes() int64 {
	p := t.Policy
	var n int64
	for _, rec := range t.encs.recs {
		if rec.ctx != nil {
			n = max(n, int64(rec.ctx.G.NumNodes()))
		}
	}
	hidden, chips := int64(p.Cfg.Hidden), int64(p.Cfg.Chips)
	b := p.Bytes() + p.weightBytes() + 4*words(n*hidden) + words(n*chips) +
		heapObject(int64(cap(t.buf))*int64(unsafe.Sizeof(transition{}))) + words(int64(cap(t.order)))
	for _, rec := range t.encs.recs {
		b += p.recordBytes(rec, true)
	}
	b += heapObject(int64(cap(t.steps)) * int64(unsafe.Sizeof([]stepBufs(nil))))
	for _, steps := range t.steps {
		b += heapObject(int64(cap(steps)) * int64(unsafe.Sizeof(stepBufs{})))
		for _, s := range steps {
			b += words(int64(cap(s.part))) + words(int64(cap(s.raw)))
		}
	}
	for _, w := range t.clones {
		if w == nil {
			continue // a slot no rollout worker has run on
		}
		b += w.pol.Bytes()
		for _, rec := range w.encs.recs {
			b += w.pol.recordBytes(rec, false)
		}
		for _, r := range w.parts {
			if r.part != nil {
				b += partBytes(int64(r.env.Ctx.G.NumNodes()), int64(r.part.Chips()), r.env.UseSampleMode)
			}
		}
	}
	return b
}
