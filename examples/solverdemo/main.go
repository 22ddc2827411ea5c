// Solver demo: the constraint machinery of Sec. 4.2 on Figure 2's running
// example. Shows how the solver's domains shrink under propagation, how
// SAMPLE and FIX mode work, and why the invalid partitions of Figures 2c-2e
// are rejected.
//
//	go run ./examples/solverdemo
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mcmpart/internal/cpsolver"
	"mcmpart/internal/graph"
	"mcmpart/internal/partition"
)

func main() {
	// Figure 2a: node 0 fans out to 1 and 2; 1 feeds 3; 2 and 3 feed 4.
	g := graph.New("figure2a")
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Node{Name: fmt.Sprintf("node%d", i), Op: graph.OpMatMul, FLOPs: 1e6, OutputBytes: 1 << 10})
	}
	g.MustAddEdge(0, 1, 1<<10)
	g.MustAddEdge(0, 2, 1<<10)
	g.MustAddEdge(1, 3, 1<<10)
	g.MustAddEdge(2, 4, 1<<10)
	g.MustAddEdge(3, 4, 1<<10)

	const chips = 4
	fmt.Println("Figure 2's invalid partitions, rejected by the checker:")
	for _, tc := range []struct {
		name string
		p    partition.Partition
	}{
		{"2c acyclic dataflow", partition.Partition{0, 1, 0, 1, 0}},
		{"2d skipping chips", partition.Partition{0, 0, 0, 2, 2}},
		{"2e triangle dependency", partition.Partition{0, 1, 0, 1, 2}},
	} {
		err := tc.p.Validate(g, chips)
		fmt.Printf("  %-24s %v -> %v\n", tc.name, tc.p, err)
	}

	s, err := cpsolver.New(g, chips, cpsolver.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconstraint propagation after assigning node 1 to chip 2:")
	if _, err := s.Assign(1, 2); err != nil {
		log.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Printf("  domain(node%d) = %v\n", v, s.Domain(v))
	}

	rng := rand.New(rand.NewSource(1))
	fmt.Println("\nSAMPLE mode (Algorithm 1) with a uniform distribution:")
	for i := 0; i < 3; i++ {
		p, err := s.Sample(nil, cpsolver.RandomOrder(rng, g.NumNodes()), nil, rng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  sample %d: %v\n", i, p)
	}

	fmt.Println("\nFIX mode (Algorithm 2) repairing Figure 2e's invalid hint:")
	p, err := s.Fix(nil, cpsolver.RandomOrder(rng, g.NumNodes()), []int{0, 1, 0, 1, 2}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  repaired: %v (valid: %v)\n", p, p.Validate(g, chips) == nil)
	st := s.StatsSnapshot()
	fmt.Printf("\nsolver work: %d decisions, %d backtracks, %d propagations\n",
		st.Decisions, st.Backtracks, st.Propagations)
}
