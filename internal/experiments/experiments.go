// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. 5). Each experiment is a pure function from a
// configuration to a result struct with a Format method that prints the
// same rows/series the paper reports; cmd/mcmexp and the repository-root
// benchmarks are thin wrappers around this package.
//
// Figures 5 and 6 and the heterogeneity sweep plan through the facade's
// Planner — Pretrain, then one Plan call per trial — so they measure the
// code the daemon serves (DESIGN.md §2, "Figures").
//
// Experiments run at two scales: ScaleQuick (default; minutes on one CPU
// core, reduced sample budgets and network sizes) and ScaleFull (the
// paper's budgets and the paper's 8x128 network). DESIGN.md records
// measured results for both the shapes and the deltas against the paper.
package experiments

import (
	"fmt"

	"mcmpart"
)

// Scale selects experiment budgets.
type Scale int

const (
	// ScaleQuick runs reduced budgets sized for a single CPU core.
	ScaleQuick Scale = iota
	// ScaleFull runs the paper's budgets (5000/800 samples, 20000
	// pre-training samples, the paper's 8x128 network for the pre-trained
	// policy).
	ScaleFull
)

// ParseScale converts a CLI flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick", "":
		return ScaleQuick, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (quick or full)", s)
}

// Methods lists the five strategies of Figures 5 and 6 in the paper's
// legend order.
var Methods = []mcmpart.Method{
	mcmpart.MethodRandom, mcmpart.MethodSA, mcmpart.MethodRL, mcmpart.MethodZeroShot, mcmpart.MethodFineTune,
}

// labels are the paper's legend names for Methods.
var labels = map[mcmpart.Method]string{
	mcmpart.MethodRandom:   "Random",
	mcmpart.MethodSA:       "SA",
	mcmpart.MethodRL:       "RL",
	mcmpart.MethodZeroShot: "RL Zeroshot",
	mcmpart.MethodFineTune: "RL Finetuning",
}
