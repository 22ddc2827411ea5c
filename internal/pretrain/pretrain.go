// Package pretrain implements the paper's pre-training pipeline (Sec. 4.3,
// Figure 4): a training worker iterates PPO over the training-set graphs
// against the analytical cost model, periodically emitting checkpoints of
// the policy weights; a validation worker replays every checkpoint on the
// validation-set graphs and picks the one with the best average reward. The
// chosen checkpoint is what deployment warm-starts from, either zero-shot
// or with fine-tuning (rl.Deployment.ZeroShot / rl.Trainer.Restart); the
// validation worker scores each checkpoint through the same
// Deployment.ZeroShot the planner's zero-shot plans run.
package pretrain

import (
	"context"
	"fmt"
	"math/rand"

	"mcmpart/internal/graph"
	"mcmpart/internal/nn"
	"mcmpart/internal/parallel"
	"mcmpart/internal/rl"
)

// EnvFactory builds a fresh evaluation environment for a graph; the
// pipeline uses it for both training and validation graphs. Implementations
// wire the graph to a Partitioner and an evaluator (the analytical cost
// model during pre-training) and set the heuristic baseline.
type EnvFactory func(g *graph.Graph) (*rl.Env, error)

// Config drives the pipeline.
type Config struct {
	// Policy is the network shape (must match the deployment package's
	// chip count).
	Policy rl.Config
	// PPO is the training configuration.
	PPO rl.PPOConfig
	// TotalSamples is the pre-training evaluation budget summed over all
	// training graphs (paper: 20000).
	TotalSamples int
	// Checkpoints is how many evenly spaced checkpoints to emit
	// (paper: 200).
	Checkpoints int
	// ValidationSamples is the per-graph zero-shot budget the validation
	// worker spends scoring each checkpoint.
	ValidationSamples int
	// Seed derives all randomness.
	Seed int64
	// Progress, when set, is invoked after every absorbed training sample
	// with the cumulative sample count across all training graphs and the
	// absorbing graph's best-so-far improvement. It runs on the goroutine
	// driving training (never concurrently); validation scoring does not
	// report progress.
	Progress func(samples int, bestImprovement float64)
}

// Result is the pipeline output.
type Result struct {
	// Checkpoints are the emitted snapshots, oldest first.
	Checkpoints []nn.Snapshot
	// Scores are the validation rewards per checkpoint.
	Scores []float64
	// BestIndex points at the checkpoint the validation worker selected.
	BestIndex int
	// TrainStats records per-iteration training statistics.
	TrainStats []rl.IterationStats
}

// Best returns the selected checkpoint.
func (r *Result) Best() nn.Snapshot { return r.Checkpoints[r.BestIndex] }

// Run executes the two-worker pipeline sequentially (training first, then
// validation — determinism matters more than wall-clock overlap here).
//
// Cancelling or timing out ctx stops the pipeline at the next iteration
// boundary and returns the best-so-far result together with ctx.Err(): the
// checkpoints emitted so far plus a final snapshot of the current policy,
// with BestIndex pointing at that most recent snapshot (validation scoring
// is skipped — Scores stays nil — because the scoring budget itself was
// cancelled). An uncancelled run is bit-identical to the pre-context
// behavior.
func Run(ctx context.Context, train, validation []*graph.Graph, factory EnvFactory, cfg Config) (*Result, error) {
	if len(train) == 0 || len(validation) == 0 {
		return nil, fmt.Errorf("pretrain: need training and validation graphs (%d/%d)", len(train), len(validation))
	}
	if cfg.Checkpoints < 1 {
		cfg.Checkpoints = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	policy := rl.NewPolicy(cfg.Policy, rng)
	trainer := rl.NewTrainer(policy, cfg.PPO, rng)

	envs := make([]*rl.Env, len(train))
	for i, g := range train {
		env, err := factory(g)
		if err != nil {
			return nil, fmt.Errorf("pretrain: training env for %s: %w", g.Name(), err)
		}
		envs[i] = env
	}
	if cfg.Progress != nil {
		// One shared counter across the training environments; absorption
		// is serial (deterministic episode order), so no locking needed.
		var total int
		for _, env := range envs {
			env.OnSample = func(_ int, best float64) {
				total++
				cfg.Progress(total, best)
			}
		}
	}

	res := &Result{}
	totalSamples := func() int {
		s := 0
		for _, e := range envs {
			s += e.Samples
		}
		return s
	}
	interval := cfg.TotalSamples / cfg.Checkpoints
	if interval < 1 {
		interval = 1
	}
	nextCheckpoint := interval
	for totalSamples() < cfg.TotalSamples {
		if err := ctx.Err(); err != nil {
			// Best-so-far: close the checkpoint stream with the current
			// weights and hand deployment the most recent snapshot.
			res.Checkpoints = append(res.Checkpoints, policy.Snapshot())
			res.BestIndex = len(res.Checkpoints) - 1
			return res, err
		}
		res.TrainStats = append(res.TrainStats, trainer.Iterate(envs))
		//mcmlint:ignore ctxloop checkpoint drain takes no samples and is bounded by cfg.Checkpoints; the training loop above checks ctx
		for totalSamples() >= nextCheckpoint && len(res.Checkpoints) < cfg.Checkpoints {
			res.Checkpoints = append(res.Checkpoints, policy.Snapshot())
			nextCheckpoint += interval
		}
	}
	if len(res.Checkpoints) == 0 || totalSamples() > nextCheckpoint-interval {
		res.Checkpoints = append(res.Checkpoints, policy.Snapshot())
	}

	scores, err := scoreCheckpoints(ctx, res.Checkpoints, validation, factory, cfg)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled mid-validation: the checkpoints are intact, only
			// their scores are not; fall back to the most recent snapshot.
			res.BestIndex = len(res.Checkpoints) - 1
			return res, ctx.Err()
		}
		return nil, err
	}
	res.Scores = scores
	best := -1.0
	for ci, score := range scores {
		if score > best {
			best = score
			res.BestIndex = ci
		}
	}
	return res, nil
}

// scoreCheckpoints is the validation worker: a zero-shot score per
// checkpoint, averaged over the validation graphs, each graph planned from
// a deployment of it under the checkpoint's weights. Checkpoints score
// independently — each gets its own scorer policy, fresh environments, and
// an RNG derived from (Seed+1, checkpoint index) — so they fan out across
// the workers the process budget grants with scores identical at any count.
func scoreCheckpoints(ctx context.Context, checkpoints []nn.Snapshot, validation []*graph.Graph, factory EnvFactory, cfg Config) ([]float64, error) {
	return parallel.MapErr(len(checkpoints), len(checkpoints), func(ci int) (float64, error) {
		vrng := parallel.Rng(cfg.Seed+1, ci)
		scorer := rl.NewPolicy(cfg.Policy, vrng)
		if err := scorer.Restore(checkpoints[ci]); err != nil {
			return 0, fmt.Errorf("pretrain: checkpoint %d: %w", ci, err)
		}
		var score float64
		for _, g := range validation {
			env, err := factory(g)
			if err != nil {
				return 0, fmt.Errorf("pretrain: validation env for %s: %w", g.Name(), err)
			}
			if err := rl.NewDeployment(scorer, env.Ctx).ZeroShot(ctx, scorer, env, cfg.ValidationSamples, vrng); err != nil {
				return 0, err
			}
			score += env.BestImprovement()
		}
		return score / float64(len(validation)), nil
	})
}
