package mat

import "mcmpart/internal/parallel"

// ParallelFlopThreshold is the approximate multiply-add count below which the
// matmul kernels stay serial: goroutine fan-out costs ~µs, so small products
// (everything in the quick-scale policy network) must not pay for it. Above
// the threshold the kernels split output rows into one contiguous block per
// worker. Row-parallel splitting preserves the serial kernels' per-element
// accumulation order exactly, so results are bit-for-bit identical at any
// worker count — the property the determinism tests pin down.
const ParallelFlopThreshold = 1 << 17

// RowBlocks runs kernel(arg, worker, lo, hi) over the rows [0, rows), split
// into per-worker blocks by parallel.ForEachBlock when flops, the
// multiply-adds the whole call performs, reach ParallelFlopThreshold, in one
// serial call otherwise. The workers come from the process-wide lane budget
// (package parallel's doc comment), so a stage issued from inside an
// already-fanned-out one falls back to serial execution instead of
// oversubscribing. It is the one fan-out rule of every row-parallel stage,
// this package's kernels, the GNN's aggregation and the policy head's alike:
// kernel must write only its rows' outputs, so the split never affects
// results, and keeps no per-worker state, so it ignores the worker index.
//
// The kernel and its operands arrive as plain arguments — a top-level
// function or method expression and a value — so that only the fan-out
// path builds a closure: a serial call allocates nothing.
func RowBlocks[T any](rows, flops int, kernel func(arg T, worker, lo, hi int), arg T) {
	limit := rows
	if flops < ParallelFlopThreshold {
		limit = 1
	}
	parallel.ForEachBlock(limit, rows, kernel, arg)
}
