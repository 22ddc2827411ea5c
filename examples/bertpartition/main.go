// BERT partitioning: the paper's Sec. 5.3 scenario in miniature. Search for
// a 36-way partition of the 2138-node BERT graph on the hardware simulator,
// comparing the greedy compiler heuristic, random search, and simulated
// annealing under the same evaluation budget.
//
//	go run ./examples/bertpartition
package main

import (
	"context"
	"fmt"
	"log"

	"mcmpart"
)

func main() {
	g := mcmpart.BERT()
	pkg := mcmpart.Edge36()
	fmt.Printf("workload: %v (%d MiB of weights)\n", g, g.TotalParamBytes()>>20)
	fmt.Printf("package:  %v\n\n", pkg)

	planner, err := mcmpart.NewPlanner(pkg)
	if err != nil {
		log.Fatal(err)
	}
	budget := 120
	for _, method := range []mcmpart.Method{mcmpart.MethodGreedy, mcmpart.MethodRandom, mcmpart.MethodSA} {
		res, err := planner.Plan(context.Background(), g, mcmpart.PlanOptions{
			Method:       method,
			SampleBudget: budget,
			Seed:         7,
			UseSimulator: true, // search against the real memory constraint
		})
		if err != nil {
			log.Fatalf("%s: %v", method, err)
		}
		fmt.Printf("%-8s throughput %8.1f inf/s  improvement %.2fx  (%d samples)\n",
			method, res.Throughput, res.Improvement, res.Samples)
	}

	fmt.Println("\nthe headline result of the paper is that a pre-trained RL policy")
	fmt.Println("reaches the same quality in ~20 samples; run cmd/mcmexp -exp fig6")
	fmt.Println("to reproduce that comparison end to end.")
}
