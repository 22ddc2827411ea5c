package mcmpart

import (
	"encoding/hex"
	"math/rand"

	"mcmpart/internal/eval"
	"mcmpart/internal/rl"
)

// trainingBytes bounds what the planner keeps of the graphs it trained
// RL-from-scratch plans on, and of those it searched (each entry's context
// plus the bytes of its idle kits): room for three BERT-sized graphs with a
// training kit each at two workers (≈16.4 MB a kit, ≈6.4 MB of it the
// rollout worker with its clone, record and replica) and their search kits
// (≈2.55 MB each once annealed). A kit that does not fit beside its entry's
// context and idle kits is not kept.
const trainingBytes = 64 << 20

// newTrainingKits returns the planner's empty store of training kits
// (Planner.training): per graph planned RL-from-scratch, a context and a
// free list of idle kits (a kitPool), so that a repeat graph's RL plan
// neither builds the graph's context, nor an environment, nor a policy,
// trainer and rollout workers whose scratch it sizes again, nor a
// partitioner replica per rollout worker (DESIGN.md §8, "What outlives a
// request"). A fresh policy's weights are drawn from each plan's seed, so
// unlike deployments the kits do not depend on what is installed. A
// graph's first RL plan builds its entry on a clone of the graph and keeps
// its kit, as a graph's first deployed-policy plan does. The store also
// holds each searched graph's search entry (takeSearchKit).
func newTrainingKits() *planCache[string, *trainingKits] {
	return newKitStore[*rl.GraphContext](trainingBytes)
}

// trainingKits is one graph's entry in the store: a clone of the graph with
// the fresh network's encoder inputs, and the idle kits on it, each an
// environment on the context and a trainer on it. A plan Restarts the
// trainer from its seed, so a kit trained on before trains what a fresh one
// does.
type trainingKits = kitPool[*rl.GraphContext]

// What an RL-from-scratch plan ran on (Planner.rlPlans,
// mcmpart_rl_plans_total{kit}).
const (
	kitNew    = iota // a kit it built, which its graph's entry keeps
	kitReused        // an idle kit an earlier plan of the graph left
)

// takeTrainingKit returns a kit for an RL-from-scratch plan of g drawn from
// rng, its environment evaluating with ev against baseTh — the
// configuration MethodRL runs in, with the package's fresh network shape,
// whatever policy is installed, so that "scratch" means the same on every
// planner — and g's entry in the planner's store, which the caller hands
// the kit back to with put once its plan is done. A kit is an idle one of
// g's entry, its trainer Restarted from rng, when the entry has one, and
// otherwise a new environment and a trainer on a new policy from rng.
func (pl *Planner) takeTrainingKit(g *Graph, ev eval.Evaluator, baseTh float64, rng *rand.Rand) (*trainingKits, kit, error) {
	cfg := pl.freshPolicyConfig(false)
	e, k, _ := takeKit(pl.training, g, g.Fingerprint(), func(clone *Graph) (*rl.GraphContext, int64) {
		ctx := pl.graphContext(clone, cfg)
		return ctx, ctx.Bytes()
	})
	use := kitReused
	if k.env != nil {
		k.trainer.Restart(rng)
	} else {
		env, err := pl.buildEnv(e.base.G, e.base, ev, baseTh)
		if err != nil {
			return nil, kit{}, err
		}
		k, use = kit{env: env, trainer: rl.NewTrainer(rl.NewPolicy(cfg, rng), rl.QuickPPOConfig(), rng)}, kitNew
	}
	pl.rlPlans[use].Add(1)
	k.env.Eval, k.env.Baseline = ev, baseTh
	return e, k, nil
}

// searchKey is the key g's search kits are kept under in the planner's
// training store: g's StructureDigest, which a graph planned by search
// alone is never canonicalized for, marked so that it is never a
// fingerprint, the key of g's training kits beside them. Like fingerprints,
// equal digests only find the entry; takeKit matches it by Identical.
func searchKey(g *Graph) string {
	d := g.StructureDigest()
	return "search:" + hex.EncodeToString(d[:])
}

// takeSearchKit returns a kit for a random or annealing plan of g, its
// environment evaluating with ev against baseTh, and g's search entry in the
// planner's training store, which the caller hands the kit back to with put
// once its plan is done. The entry's context holds only the clone of g
// (the search methods run no policy), and its kits only an environment,
// whose solver tables and annealing matrix a later search fills again:
// an idle kit of the entry when it has one, and otherwise a new
// environment.
func (pl *Planner) takeSearchKit(g *Graph, ev eval.Evaluator, baseTh float64) (*trainingKits, kit, error) {
	e, k, _ := takeKit(pl.training, g, searchKey(g), func(clone *Graph) (*rl.GraphContext, int64) {
		ctx := &rl.GraphContext{G: clone}
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
