package mcmpart_test

import (
	"testing"

	"mcmpart"
	"mcmpart/internal/randgraph"
)

// FuzzPlan fuzzes the planning surface end to end: a generated graph (the
// family, size, and structure seed all drawn by the fuzzer) is planned on a
// dev package with a fuzzed method, budget, seed, and environment. The
// contract under test is the conformance harness's plan oracle: every call
// either returns a typed error or a partition that passes ValidateOn with
// consistent Result fields — never a panic, never a silently-invalid plan.
func FuzzPlan(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(24), uint8(0), uint8(4), false)
	f.Add(int64(2), uint8(1), uint16(40), uint8(1), uint8(6), true)
	f.Add(int64(3), uint8(2), uint16(56), uint8(2), uint8(3), false)
	f.Add(int64(4), uint8(3), uint16(32), uint8(1), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, famIdx uint8, nodes uint16, methodIdx uint8, budget uint8, useSim bool) {
		fams := randgraph.Families()
		g := randgraph.Generate(randgraph.Config{
			Family: fams[int(famIdx)%len(fams)],
			Nodes:  8 + int(nodes%56), // keep each execution fast
			Seed:   seed,
		})
		methods := []mcmpart.Method{mcmpart.MethodGreedy, mcmpart.MethodRandom, mcmpart.MethodSA}
		pkg := mcmpart.Dev4()
		opts := mcmpart.PlanOptions{
			Method:       methods[int(methodIdx)%len(methods)],
			SampleBudget: 1 + int(budget%6),
			Seed:         int64(uint64(seed) >> 1), // PlanOptions seeds are non-negative
			UseSimulator: useSim,
		}
		res, err := planOnce(g, pkg, opts)
		if err != nil {
			if res != nil {
				t.Fatalf("error %v came with a non-nil result", err)
			}
			return // typed error: conforming (e.g. the graph does not fit)
		}
		if res == nil {
			t.Fatal("nil result without error")
		}
		if verr := mcmpart.Validate(g, pkg, res.Partition); verr != nil {
			t.Fatalf("plan returned an invalid partition: %v", verr)
		}
		if !(res.Throughput > 0) {
			t.Fatalf("plan returned throughput %v", res.Throughput)
		}
		if res.Samples < 1 {
			t.Fatalf("plan returned samples %d", res.Samples)
		}
		if n := len(res.History); n > 0 && res.History[n-1] != res.Improvement {
			t.Fatalf("history tail %v != improvement %v", res.History[n-1], res.Improvement)
		}
	})
}
