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

// rowRange runs kernel(out, a, b, lo, hi) over the output rows [0, rows),
// split into per-worker blocks when the flop estimate warrants it, in one
// serial call otherwise. Extra workers are reserved from the process-wide
// lane budget (package parallel's doc comment), so matmuls issued from
// inside an already-fanned-out layer fall back to serial execution instead
// of oversubscribing; the split never affects results. The kernel and its
// operands arrive as plain arguments so that only the fan-out path builds a
// closure: a serial product allocates nothing.
func rowRange(rows, flops int, kernel func(out, a, b *Dense, lo, hi int), out, a, b *Dense) {
	if flops < ParallelFlopThreshold {
		kernel(out, a, b, 0, rows)
		return
	}
	lanes := parallel.AcquireLanes(rows - 1)
	defer parallel.ReleaseLanes(lanes)
	if lanes == 0 {
		kernel(out, a, b, 0, rows)
		return
	}
	parallel.ForEachBlock(lanes+1, rows, func(_, lo, hi int) { kernel(out, a, b, lo, hi) })
}
