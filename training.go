package mcmpart

import (
	"math/rand"

	"mcmpart/internal/eval"
	"mcmpart/internal/rl"
)

// trainingBytes bounds what the planner keeps of the graphs it planned
// from scratch (each entry's context plus the bytes of its idle kits): room
// for three BERT-sized graphs with a kit each at two workers (≈16.4 MB a
// kit once an RL plan has run on it, ≈6.4 MB of it the rollout worker with
// its clone, record and replica, and ≈2.55 MB of it the environment once
// annealed). A kit that does not fit beside its entry's context and idle
// kits is not kept.
const trainingBytes = 64 << 20

// newTrainingKits returns the planner's empty store of training kits
// (Planner.training): per graph planned RL-from-scratch, by random search
// or by annealing, a context and a free list of idle kits (a kitPool), so
// that a repeat graph's plan neither builds the graph's context, nor an
// environment with its solver's tables and annealing matrix, nor — for an
// RL plan on a kit an RL plan ran on before — a policy, trainer and rollout
// workers whose scratch it sizes again, nor a partitioner replica per
// rollout worker (DESIGN.md §8, "What outlives a request"). A fresh
// policy's weights are drawn from each plan's seed, so unlike deployments
// the kits do not depend on what is installed. A graph's first plan builds
// its entry on a clone of the graph and keeps its kit, as a graph's first
// deployed-policy plan does.
func newTrainingKits() *planCache[[32]byte, *trainingKits] {
	return newKitStore[*rl.GraphContext](trainingBytes)
}

// trainingKits is one graph's entry in the store: a clone of the graph with
// the fresh network's encoder inputs, and the idle kits on it, each an
// environment on the context and, once an RL plan has run on the kit, a
// trainer on it. An RL plan Restarts the trainer from its seed, so a kit
// trained on before trains what a fresh one does.
type trainingKits = kitPool[*rl.GraphContext]

// What an RL-from-scratch plan ran on (Planner.rlPlans,
// mcmpart_rl_plans_total{kit}).
const (
	kitNew    = iota // a trainer it built, which its kit keeps
	kitReused        // a trainer an earlier RL plan of the graph left on the kit
)

// takeTrainingKit returns a kit for a from-scratch plan of g — RL, random
// or annealing — its environment evaluating with ev against baseTh, and g's
// entry in the planner's store, which the caller hands the kit back to with
// put once its plan is done. The entry's context is the fresh network's on
// this package, whatever policy is installed, so that "scratch" means the
// same on every planner. A kit is an idle one of g's entry when the entry
// has one, and otherwise a new environment; an RL plan readies its trainer
// with readyTrainer.
func (pl *Planner) takeTrainingKit(g *Graph, ev eval.Evaluator, baseTh float64) (*trainingKits, kit, error) {
	e, k, _ := takeKit(pl.training, g, func(clone *Graph) (*rl.GraphContext, int64) {
		ctx := pl.graphContext(clone, pl.freshPolicyConfig(false))
		return ctx, ctx.Bytes()
	})
	if k.env == nil {
		env, err := pl.buildEnv(e.base.G, e.base, ev, baseTh)
		if err != nil {
			return nil, kit{}, err
		}
		k.env = env
	}
	k.env.Eval, k.env.Baseline = ev, baseTh
	return e, k, nil
}

// readyTrainer gives k the trainer a MethodRL or MethodFineTune plan trains
// with rng: the kit's, or a new one the kit keeps, Restarted from weights
// drawn from rng as a fresh policy's are (RL, under QuickPPOConfig) or from
// installed's policy (fine-tune, under installed.ftPPO).
func (pl *Planner) readyTrainer(k *kit, m Method, installed policySnapshot, rng *rand.Rand) {
	var from *rl.Policy // nil: the weights are drawn from rng
	cfg, ppo := pl.freshPolicyConfig(false), rl.QuickPPOConfig()
	if m == MethodFineTune {
		from, cfg, ppo = installed.policy, installed.policy.Cfg, installed.ftPPO
	}
	use := kitReused
	if k.trainer == nil {
		k.trainer, use = rl.NewTrainer(rl.NewPolicy(cfg, nil), ppo, nil), kitNew
	}
	k.trainer.Restart(from, rng)
	if m == MethodRL {
		pl.rlPlans[use].Add(1)
	}
}
