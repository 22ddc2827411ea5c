package rl

import (
	"context"
	"math"
	"math/rand"

	"mcmpart/internal/mat"
	"mcmpart/internal/nn"
)

// PPOConfig holds the training hyper-parameters. The paper's selected
// values (Sec. 5.1) are 20 rollouts, 4 minibatches and 10 epochs.
type PPOConfig struct {
	Rollouts    int     // episodes collected per iteration
	MiniBatches int     // minibatches per epoch
	Epochs      int     // passes over the collected batch per iteration
	LR          float64 // Adam learning rate
	ClipEps     float64 // PPO clipping epsilon
	ValueCoef   float64 // value-loss weight
	EntropyCoef float64 // entropy-bonus weight
	MaxGradNorm float64 // global gradient clip (0 disables)
}

// DefaultPPOConfig returns the paper's training hyper-parameters.
func DefaultPPOConfig() PPOConfig {
	return PPOConfig{
		Rollouts:    20,
		MiniBatches: 4,
		Epochs:      10,
		LR:          3e-4,
		ClipEps:     0.2,
		ValueCoef:   0.5,
		EntropyCoef: 0.01,
		MaxGradNorm: 0.5,
	}
}

// QuickPPOConfig returns a reduced setting for tests and default benches.
func QuickPPOConfig() PPOConfig {
	cfg := DefaultPPOConfig()
	cfg.Rollouts = 8
	cfg.Epochs = 4
	cfg.MiniBatches = 2
	return cfg
}

// transition is one PPO sample: the state (graph + previous assignment),
// the joint action, and its credit.
type transition struct {
	env    *Env
	ei     int // env's index in the Iterate call's environment list
	prev   []int
	action []int
	logp   float64
	value  float64
	ret    float64 // reward-to-go (gamma = 1 over the T refinement steps)
	adv    float64
}

// Trainer runs PPO over one policy and any number of environments.
type Trainer struct {
	Policy *Policy
	Cfg    PPOConfig

	opt *nn.Adam
	rng *rand.Rand

	// Scratch that survives from one Iterate to the next, and across
	// Restart, so a steady-state iteration allocates only its episodes'
	// transitions and outcomes. Bytes estimates it.
	encs    encodings // Policy's activation records, one per environment
	clones  []*rolloutWorker
	steps   [][]stepBufs // by episode and step: what each draws into
	lanes   int          // the rollout workers the last batch ran on, clones[:lanes]
	buf     []transition
	order   []int
	dLogits *mat.Dense
	grad    logitGrad // the logit gradient of the transition update is on, for the head half's stage
}

// encodings holds one activation record per environment index and fills
// each on its first use within a scope. A scope is a stretch over which the
// weights do not change — one rollout batch, one minibatch — and opens with
// begin, which is what makes a stale record unreachable: nothing is ever
// read from a previous scope.
type encodings struct {
	recs   []*Encoding
	filled []bool
}

// begin opens a scope over n environments.
func (e *encodings) begin(n int) {
	for len(e.recs) < n {
		e.recs = append(e.recs, new(Encoding))
		e.filled = append(e.filled, false)
	}
	for i := range e.filled {
		e.filled[i] = false
	}
}

// of returns environment ei's record under pol's current weights, encoding
// ctx if this scope has not yet.
func (e *encodings) of(pol *Policy, ei int, ctx *GraphContext) *Encoding {
	if !e.filled[ei] {
		pol.Encode(e.recs[ei], ctx)
		e.filled[ei] = true
	}
	return e.recs[ei]
}

// backward runs the encoder half of the backward pass on every record this
// scope filled, in environment-index order.
func (e *encodings) backward(pol *Policy) {
	for i, rec := range e.recs {
		if e.filled[i] {
			pol.backwardEncoder(rec)
		}
	}
}

// NewTrainer builds a PPO trainer.
func NewTrainer(policy *Policy, cfg PPOConfig, rng *rand.Rand) *Trainer {
	opt := nn.NewAdam(policy.Params(), cfg.LR)
	opt.MaxGradNorm = cfg.MaxGradNorm
	return &Trainer{Policy: policy, Cfg: cfg, opt: opt, rng: rng}
}

// Restart readies t to train its policy from scratch again, from what
// NewTrainer(NewPolicy(t.Policy.Cfg, rng), t.Cfg, rng) starts from: it
// re-draws every weight from rng in NewPolicy's order, zeroes Adam's
// moments and step count, and makes rng the trainer's stream. Everything
// else t holds — the policy's and its rollout workers' scratch, the
// activation records, the batch and step buffers, the partitioner
// replicas — is written before it is read, so a run after Restart trains
// bit for bit what a new trainer does, and sizes none of it again.
func (t *Trainer) Restart(rng *rand.Rand) {
	t.Policy.init(rng)
	t.opt.Reset()
	t.rng = rng
}

// TrimWorkers drops the rollout workers — each a policy clone with its
// records and partitioner replicas — that t's last batch did not run on, so
// that a trainer kept between runs holds the workers the lane budget last
// granted rather than every one it ever grew. A later batch granted more
// lanes builds them again; the batch is bit for bit the same either way.
func (t *Trainer) TrimWorkers() {
	clear(t.clones[t.lanes:])
	t.clones = t.clones[:t.lanes]
}

// IterationStats summarizes one PPO iteration.
type IterationStats struct {
	MeanReward  float64
	MeanEntropy float64
	PolicyLoss  float64
	ValueLoss   float64
	Samples     int
}

// Iterate performs one PPO iteration: collect Rollouts episodes round-robin
// over the environments (fanned across the worker pool — see rollout.go for
// the determinism contract), compute normalized advantages, and run
// Epochs x MiniBatches clipped-surrogate updates.
func (t *Trainer) Iterate(envs []*Env) IterationStats {
	var stats IterationStats
	buf := t.buf[:0]
	results := t.collect(envs)
	for r := range results {
		env := envs[r%len(envs)]
		for _, s := range results[r].steps {
			env.absorb(s.p, s.v)
		}
		buf = append(buf, results[r].transitions...)
	}
	t.buf = buf
	stats.Samples = len(buf)
	// Advantages, normalized over the batch.
	var mean, sq float64
	for i := range buf {
		buf[i].adv = buf[i].ret - buf[i].value
		mean += buf[i].adv
		stats.MeanReward += buf[i].ret
	}
	mean /= float64(len(buf))
	stats.MeanReward /= float64(len(buf))
	for i := range buf {
		d := buf[i].adv - mean
		sq += d * d
	}
	std := math.Sqrt(sq/float64(len(buf))) + 1e-8
	for i := range buf {
		buf[i].adv = (buf[i].adv - mean) / std
	}

	if cap(t.order) < len(buf) {
		t.order = make([]int, len(buf))
	}
	order := t.order[:len(buf)]
	for i := range order {
		order[i] = i
	}
	nb := t.Cfg.MiniBatches
	if nb < 1 {
		nb = 1
	}
	for epoch := 0; epoch < t.Cfg.Epochs; epoch++ {
		t.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for b := 0; b < nb; b++ {
			lo, hi := b*len(order)/nb, (b+1)*len(order)/nb
			if lo == hi {
				continue
			}
			nn.ZeroGrads(t.Policy.Params())
			// The weights are fixed until opt.Step below, so each graph in
			// the minibatch is encoded once, at its first transition, and
			// backpropagated through once, after its last.
			t.encs.begin(len(envs))
			var pl, vl, ent float64
			for _, idx := range order[lo:hi] {
				p, v, e := t.update(&buf[idx], float64(hi-lo))
				pl += p
				vl += v
				ent += e
			}
			t.encs.backward(t.Policy)
			t.opt.Step()
			stats.PolicyLoss += pl
			stats.ValueLoss += vl
			stats.MeanEntropy += ent / float64(hi-lo)
		}
	}
	total := float64(t.Cfg.Epochs * nb)
	stats.PolicyLoss /= total
	stats.ValueLoss /= total
	stats.MeanEntropy /= total
	// The transitions hold their episodes' actions; the batch is done with
	// them, and the buffer keeps only its room.
	clear(buf)
	return stats
}

// update accumulates the head gradients of one transition's PPO loss,
// scaled by 1/batch, and returns its loss components. Its encoder
// gradients wait on the transition's record for encodings.backward.
func (t *Trainer) update(tr *transition, batch float64) (policyLoss, valueLoss, entropy float64) {
	f := t.Policy.Heads(t.encs.of(t.Policy, tr.ei, tr.env.Ctx), tr.prev)
	logpNew := JointLogProb(f.LogProbs, tr.action)
	ratio := math.Exp(logpNew - tr.logp)
	adv := tr.adv
	clipped := ratio < 1-t.Cfg.ClipEps || ratio > 1+t.Cfg.ClipEps
	surr1 := ratio * adv
	surr2 := math.Max(math.Min(ratio, 1+t.Cfg.ClipEps), 1-t.Cfg.ClipEps) * adv
	policyLoss = -math.Min(surr1, surr2)
	// dL/dlogpNew: zero when the clipped branch is active and smaller.
	var dLogp float64
	if !(clipped && surr2 < surr1) {
		dLogp = -adv * ratio
	}
	entropy = MeanEntropy(f.Probs, f.LogProbs)

	// Gradient wrt logits: policy term + entropy bonus, written row block
	// by row block inside the head half's stage.
	n, c := f.Probs.Rows, f.Probs.Cols
	t.dLogits = mat.Resized(t.dLogits, n, c)
	t.grad = logitGrad{action: tr.action, dLogp: dLogp, beta: t.Cfg.EntropyCoef / float64(n), scale: 1 / batch}
	vErr := f.Value - tr.ret
	valueLoss = 0.5 * vErr * vErr
	dValue := t.Cfg.ValueCoef * vErr * t.grad.scale
	t.Policy.backwardHeads(f, t.dLogits, &t.grad, dValue)
	return policyLoss, valueLoss, entropy
}

// logitGrad is one transition's PPO loss gradient with respect to the
// logits, by row: the clipped surrogate's dL/dlogpNew through the sampled
// action's log-probability, plus the entropy bonus, scaled by 1/batch.
type logitGrad struct {
	action []int
	// dLogp is dL/dlogpNew, beta the entropy weight per node, scale
	// 1/batch.
	dLogp, beta, scale float64
}

// rows writes rows [lo, hi) of dLogits for the distribution f.
func (g *logitGrad) rows(dLogits *mat.Dense, f *Forward, lo, hi int) {
	for i := lo; i < hi; i++ {
		pi := f.Probs.Row(i)
		li := f.LogProbs.Row(i)
		di := dLogits.Row(i)
		// Per-row entropy for the entropy-gradient identity.
		var hRow float64
		for j := range pi {
			hRow -= pi[j] * li[j]
		}
		a := g.action[i]
		for j := range di {
			v := g.dLogp * (indicator(j == a) - pi[j])
			// d(-H)/dlogit_j = p_j*(log p_j + H).
			v += g.beta * pi[j] * (li[j] + hRow)
			di[j] = v * g.scale
		}
	}
}

func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TrainUntil runs PPO iterations on the environments until the first
// environment has consumed at least sampleBudget evaluations, returning the
// per-iteration stats. This is the "RL" configuration of the experiments:
// training from scratch against an evaluation budget.
//
// Cancelling or timing out ctx stops the loop at the next iteration
// boundary and returns the stats so far together with ctx.Err(); the
// environments keep their best-so-far trajectory. The check sits between
// iterations, not inside one, so cancellation never tears a PPO batch —
// uncancelled runs are bit-identical to the pre-context behavior.
func (t *Trainer) TrainUntil(ctx context.Context, envs []*Env, sampleBudget int) ([]IterationStats, error) {
	var all []IterationStats
	for envs[0].Samples < sampleBudget {
		if err := ctx.Err(); err != nil {
			return all, err
		}
		all = append(all, t.Iterate(envs))
	}
	return all, nil
}
