package mcmpart

import (
	"math/rand"
	"unsafe"

	"mcmpart/internal/eval"
	"mcmpart/internal/rl"
)

// trainingBytes bounds what the planner keeps of the graphs it trained
// RL-from-scratch plans on more than once (each graph's context plus the
// bytes of its idle kits): room for three BERT-sized graphs with a kit each
// at two workers (≈16.4 MB a kit, ≈6.4 MB of it the rollout worker with its
// clone, record and replica). A kit that does not fit beside its graph's
// context and idle kits is not kept.
const trainingBytes = 64 << 20

// newTrainingKits returns the planner's empty store of training kits
// (Planner.training): per graph planned RL-from-scratch more than once, a
// context and a free list of idle kits (a kitPool), so that a repeat
// graph's RL plan neither builds the graph's context, nor an environment,
// nor a policy, trainer and rollout workers whose scratch it sizes again,
// nor a partitioner replica per rollout worker (DESIGN.md §8, "What
// outlives a request"). A fresh policy's weights are drawn from each plan's
// seed, so unlike deployments the kits do not depend on what is installed.
//
// A graph's first RL plan keeps nothing but a sighting of its fingerprint
// (an entry with no graph, weighed sightingBytes): it runs cold, on the
// graph itself, as if there were no store, and a stream of graphs each
// planned once pays no clone and leaves no kit to evict another graph's.
// The plan of a graph whose fingerprint the store holds builds the entry,
// on a clone of the graph, and keeps its kit.
func newTrainingKits() *planCache[string, *trainingKits] {
	return newKitStore[*rl.GraphContext, trainingKit](trainingBytes)
}

// trainingKits is one graph's entry in the store: a clone of the graph with
// the fresh network's encoder inputs, and the idle kits on it.
type trainingKits = kitPool[*rl.GraphContext, trainingKit]

// sightingBytes is what the store counts for a sighting: the entry, its
// map slot, key and pool.
const sightingBytes = entryBytes + int64(unsafe.Sizeof(trainingKits{}))

// trainingKit is what one RL-from-scratch plan of an entry's graph runs on
// besides the context: an environment on the context, and a trainer on it
// whose policy, optimizer, activation records, rollout workers with their
// partitioner replicas and batch buffers are sized for the graph. An idle
// kit's environment is Reset, and a plan Restarts the trainer from its
// seed, so a kit trained on before trains what a fresh one does.
type trainingKit struct {
	env     *rl.Env
	trainer *rl.Trainer
	bytes   int64 // what the kit held when it was handed back (weighed)
}

func (k trainingKit) environment() *rl.Env { return k.env }
func (k trainingKit) size() int64          { return k.bytes }

// weighed returns k as its plan hands it back: its trainer keeps the
// rollout workers its last batch ran on, and k weighs what it then holds.
func (k trainingKit) weighed() trainingKit {
	k.trainer.TrimWorkers()
	k.bytes = k.env.Bytes() + k.trainer.Bytes()
	return k
}

// What an RL-from-scratch plan ran on (Planner.rlPlans,
// mcmpart_rl_plans_total{kit}).
const (
	kitNone   = iota // the graph's first: a cold kit, not kept
	kitNew           // a repeat graph's, on a kit it built and keeps
	kitReused        // a repeat graph's, on an idle kit
)

// takeTrainingKit returns a kit for an RL-from-scratch plan of g drawn from
// rng, its environment evaluating with ev against baseTh — the
// configuration MethodRL runs in, with the package's fresh network shape,
// whatever policy is installed, so that "scratch" means the same on every
// planner — and g's entry in the planner's store, which the caller hands
// the kit back to with put once its plan is done; nil when the kit is not
// to be kept.
//
// A kit is an idle one of g's entry, its trainer Restarted from rng, when
// the entry has one, and otherwise a new environment and a trainer on a new
// policy from rng. When the store holds a sighting of g's fingerprint, or
// another graph's entry under it, the kit is g's first kept one and a new
// entry on a clone of g replaces what the store holds; when the store holds
// nothing under it, the kit runs on g itself, the store keeps a sighting,
// and the kit is not kept.
func (pl *Planner) takeTrainingKit(g *Graph, ev eval.Evaluator, baseTh float64, rng *rand.Rand) (*trainingKits, trainingKit, error) {
	set, fp, cfg := pl.training, g.Fingerprint(), pl.freshPolicyConfig(false)
	e, seen := set.get(fp)
	var k trainingKit
	var ctx *rl.GraphContext
	use := kitNew
	switch {
	case !seen:
		addKitPool[*rl.GraphContext, trainingKit](set, fp, nil, nil, sightingBytes)
		e, ctx, use = nil, pl.graphContext(g, cfg), kitNone
	case e.g != nil && e.g.Identical(g):
		var ok bool
		if k, ok = e.take(set); ok {
			use = kitReused
			k.trainer.Restart(rng)
		}
		ctx = e.base
	default:
		clone := g.Clone()
		ctx = pl.graphContext(clone, cfg)
		e = addKitPool[*rl.GraphContext, trainingKit](set, fp, clone, ctx, ctx.Bytes())
	}
	if use != kitReused {
		env, err := pl.buildEnv(ctx.G, ctx, ev, baseTh)
		if err != nil {
			return nil, trainingKit{}, err
		}
		k = trainingKit{env: env, trainer: rl.NewTrainer(rl.NewPolicy(cfg, rng), rl.QuickPPOConfig(), rng)}
	}
	pl.rlPlans[use].Add(1)
	k.env.Eval, k.env.Baseline = ev, baseTh
	return e, k, nil
}
