package mcmpart

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
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
	var rlRows uint64
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
				if mb.method == MethodRL {
					rlRows++
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
	// Every row after its store's first ran on the kit an earlier row left:
	// random, annealing and RL rows on BERT's one training kit, whose
	// trainer the first RL row built, and zero-shot rows on its deployment.
	kits := planKits(t, pl, true)
	if key := g.StructureDigest(); len(kits[0]) != 1 || len(kits[0][key]) != 1 || len(kits[1]) != 1 || len(kits[1][key]) != 1 ||
		pl.rlPlans[kitNew].Load() != 1 || pl.rlPlans[kitReused].Load() != rlRows-1 {
		t.Errorf("the rows left %d training and %d deployment entries and %d new-kit, %d reused-kit RL plans; want BERT's one kit in each and 1, %d",
			len(kits[0]), len(kits[1]), pl.rlPlans[kitNew].Load(), pl.rlPlans[kitReused].Load(), rlRows-1)
	}
	return rows
}

// TestPlanGolden compares whole plans — random, sa, rl and zeroshot, on the
// cost model and on the simulator, seeds 1-4 — with testdata/plan_golden.json,
// which this same function wrote on 1f86993, the commit before the segment
// DP skipped any transcendental and before the scheduler lost its map. It is
// never regenerated: a row that moves means a sample, an RNG draw or a float
// accumulation order changed somewhere between the solver and the evaluator.
// It pins warm plans as well as cold ones: every row runs on one planner, so
// each row after its store's first runs on a kit an earlier row handed back
// (planGoldenRows checks that they did), and the golden was written before
// kits existed.
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
