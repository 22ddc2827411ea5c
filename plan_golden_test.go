package mcmpart

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"mcmpart/internal/parallel"
	"mcmpart/internal/rl"
)

// planGoldenRow pins one Planner.Plan call on BERT/edge36 end to end: the
// chosen partition, the Result's floats as raw bits, and the whole
// best-so-far trajectory. uint64s are hex strings (JSON numbers are doubles).
type planGoldenRow struct {
	Method          string `json:"method"`
	Simulator       bool   `json:"simulator"`
	Seed            int64  `json:"seed"`
	Samples         int    `json:"samples"`
	PartitionHash   string `json:"partition_hash"`
	ThroughputBits  string `json:"throughput_bits"`
	ImprovementBits string `json:"improvement_bits"`
	HistoryHash     string `json:"history_hash"`
}

// planGoldenBudgets are the bench ops' budgets (bench/workloads.go,
// bench/serve.go) for the methods that have one.
var planGoldenBudgets = []struct {
	method Method
	budget int
}{
	{MethodRandom, 32},
	{MethodSA, 64},
	{MethodRL, 32},
	{MethodZeroShot, 16},
}

// planGoldenRows plans every row of the golden; under the race detector,
// where the point is the data race check and not the bits, only seed 1's.
func planGoldenRows(t *testing.T) []planGoldenRow {
	pl, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pre := PretrainOptions{TotalSamples: 64, Checkpoints: 2, ValidationGraphs: 1, Seed: 1}
	if _, err := pl.Pretrain(ctx, CorpusGraphs(1)[:4], pre); err != nil {
		t.Fatal(err)
	}
	g := BERT()
	var rows []planGoldenRow
	for _, mb := range planGoldenBudgets {
		for _, sim := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				if raceEnabled && seed > 1 {
					break
				}
				res, err := pl.Plan(ctx, g, PlanOptions{Method: mb.method, SampleBudget: mb.budget, UseSimulator: sim, Seed: seed})
				if err != nil {
					t.Fatalf("%s sim=%t seed=%d: %v", mb.method, sim, seed, err)
				}
				h := fnv.New64a()
				var buf [8]byte
				for _, v := range res.History {
					bits := math.Float64bits(v)
					for i := range buf {
						buf[i] = byte(bits >> (8 * i))
					}
					h.Write(buf[:])
				}
				rows = append(rows, planGoldenRow{
					Method:          string(mb.method),
					Simulator:       sim,
					Seed:            seed,
					Samples:         res.Samples,
					PartitionHash:   fmt.Sprintf("%016x", hashPartition(res.Partition)),
					ThroughputBits:  fmt.Sprintf("%016x", math.Float64bits(res.Throughput)),
					ImprovementBits: fmt.Sprintf("%016x", math.Float64bits(res.Improvement)),
					HistoryHash:     fmt.Sprintf("%016x", h.Sum64()),
				})
			}
		}
	}
	return rows
}

// TestPlanGolden compares whole plans — random, sa, rl and zeroshot, on the
// cost model and on the simulator, seeds 1-4 — with testdata/plan_golden.json,
// which this same function wrote on 1f86993, the commit before the segment
// DP skipped any transcendental and before the scheduler lost its map. It is
// never regenerated: a row that moves means a sample, an RNG draw or a float
// accumulation order changed somewhere between the solver and the evaluator.
func TestPlanGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/plan_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []planGoldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]planGoldenRow, len(want))
	for _, row := range want {
		byKey[fmt.Sprint(row.Method, row.Simulator, row.Seed)] = row
	}
	got := planGoldenRows(t)
	if !raceEnabled && len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for _, row := range got {
		if w := byKey[fmt.Sprint(row.Method, row.Simulator, row.Seed)]; row != w {
			t.Errorf("\n got %+v\nwant %+v", row, w)
		}
	}
}

// TestZeroShotPlanHeapBytes holds what a repeat graph's zero-shot plan
// allocates through the Planner: BERT/edge36 at serve-zeroshot's budget, one
// worker. plan(2) runs from the deployment plan(1) built, on the kit plan(1)
// put back — its environment with its sample and best buffers, and its
// policy clone, scratch sized — so it allocates the Result and the greedy
// baseline: 47 416 bytes measured once samples were drawn into the kit's
// buffers, against 379 448 while every sample allocated its partition, and
// 3 031 000 while every plan cloned the policy and sized the clone's head
// and zero-shot scratch (10.1 MB before deployments).
// TestFirstDeployedPlanHeapBytes holds the plan that builds them.
func TestZeroShotPlanHeapBytes(t *testing.T) {
	const ceiling = 100000
	pl, err := NewPlanner(Edge36())
	if err != nil {
		t.Fatal(err)
	}
	pl.installPolicy(rl.NewPolicy(pl.freshPolicyConfig(false), rand.New(rand.NewSource(1))), "")
	g := BERT()
	old := parallel.Default()
	parallel.SetDefault(1)
	defer parallel.SetDefault(old)
	plan := func(seed int64) {
		opts := PlanOptions{Method: MethodZeroShot, SampleBudget: 16, Seed: seed}
		if _, err := pl.Plan(context.Background(), g, opts); err != nil {
			t.Fatal(err)
		}
	}
	plan(1) // the graph's memoized layout and digest, and its deployment
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plan(2)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes", got)
	if got > ceiling {
		t.Errorf("a repeat graph's zero-shot plan allocates %d bytes, ceiling %d: does it clone the policy or size scratch again?", got, ceiling)
	}
}
