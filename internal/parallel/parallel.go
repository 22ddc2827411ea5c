// Package parallel is the repository's worker-pool execution engine: bounded
// fan-out over index ranges with a determinism contract. Every primitive
// splits work by item index, never by arrival order, and randomness is always
// derived from (baseSeed, itemIndex) via Seed — so a computation produces
// bit-for-bit identical results on one goroutine and on N. The hot layers
// (mat kernels, PPO rollout collection, experiment trials, corpus sampling)
// all run through this package; see DESIGN.md ("Parallel execution engine")
// for the contract and its rationale.
//
// How many goroutines a fan-out runs on is decided in one place, the lane
// budget below, and the primitives draw on it themselves: a call with limit
// l over n items reserves up to min(l, n)-1 lanes without blocking, runs on
// what it was granted plus the lane its caller holds, and releases them when
// it returns or re-raises a worker's panic. A limit of 1 means serial.
// Whatever nests inside fn finds the budget already drawn down and runs
// serially, so no composition of fan-outs holds more than Default()-1
// goroutines beyond its callers.
//
// The contract callers must uphold:
//
//   - fn(i) may depend only on item index i (plus immutable shared state and
//     per-worker replicas handed out by ForEachBlock);
//   - fn(i) writes only to slot i of its output (MapErr enforces this shape);
//   - randomness inside fn comes from an RNG seeded by Seed(base, i), never
//     from a shared stream.
//
// Under those rules scheduling is free to be dynamic (an atomic cursor
// balances load), yet outputs are independent of worker count and of thread
// interleaving.
//
//mcmlint:deterministic
//mcmlint:hotpath
//mcmlint:errcontract
package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide CPU budget. It starts at
// runtime.NumCPU(); cmd binaries override it from their -workers flag.
var defaultWorkers atomic.Int64

// extraLanes is the process-wide budget of additional goroutines the
// fan-outs (trials, rollout collection, validation scoring, matmul row
// blocks, adjacency aggregation, optimizer updates) and a Pool's concurrent
// tasks may hold beyond their calling goroutines: Default()-1 when nothing
// is running. Lanes are reserved non-blockingly via AcquireLanes, so nested
// fan-out (a concurrent trial's rollout's matmul) degrades to serial
// execution instead of multiplying goroutines. By the package contract, how
// a call ends up split never changes its result.
var extraLanes atomic.Int64

func init() { SetDefault(runtime.NumCPU()) }

// SetDefault sets the process-wide worker count (n <= 0 restores
// runtime.NumCPU()) and resets the lane budget to match. It returns the
// value actually installed. Call it at startup or between computations,
// not while a fan-out is running (outstanding lane reservations would be
// miscounted against the new budget).
func SetDefault(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	defaultWorkers.Store(int64(n))
	extraLanes.Store(int64(n - 1))
	return n
}

// AcquireLanes reserves up to extra lanes from the process-wide budget
// without blocking, returning how many were reserved (possibly 0 — the
// caller then runs serially). Pair every return with ReleaseLanes. The
// fan-out primitives below call it themselves; a Pool's tasks are the
// other holders of lanes.
func AcquireLanes(extra int) int {
	if extra <= 0 {
		return 0
	}
	for {
		cur := extraLanes.Load()
		if cur <= 0 {
			return 0
		}
		take := int64(extra)
		if take > cur {
			take = cur
		}
		if extraLanes.CompareAndSwap(cur, cur-take) {
			return int(take)
		}
	}
}

// ReleaseLanes returns lanes reserved by AcquireLanes to the budget.
func ReleaseLanes(n int) {
	if n > 0 {
		extraLanes.Add(int64(n))
	}
}

// Default returns the process-wide worker count.
func Default() int { return int(defaultWorkers.Load()) }

// Seed derives an independent RNG seed for item i of a computation seeded by
// base. It is a splitmix64 finalizer over the pair, so per-item streams are
// decorrelated even for adjacent indices and small bases — the property the
// determinism contract rests on (item i's randomness must not depend on how
// many items some other worker has already consumed).
func Seed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Rng returns a fresh RNG for item i of a computation seeded by base.
func Rng(base int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(Seed(base, i)))
}

// fanout is the state one ForEach or ForEachBlock call shares with its
// workers: the join, ForEach's item cursor, and the panic, if any, that a
// worker ended with. It is one value so that a call allocates it once.
//
// A panic on a worker goroutine can be recovered by nothing up the caller's
// stack and would take the process down; record keeps it and wait re-raises
// it on the calling goroutine, where the callers' deferred recovers (the
// service's ErrPlanPanic containment) see it. When several workers panic,
// the lowest index wins — ForEach's item, ForEachBlock's worker — as the
// lowest failing index does in MapErr.
type fanout struct {
	wg     sync.WaitGroup
	cursor atomic.Int64

	mu    sync.Mutex
	index int
	value any // nil until a worker panics
}

// record is handed, by a deferred function of every worker goroutine, the
// index the worker was running and what recover returned.
func (f *fanout) record(index int, r any) {
	if r == nil {
		return
	}
	f.mu.Lock()
	if f.value == nil || index < f.index {
		f.index, f.value = index, r
	}
	f.mu.Unlock()
}

// wait returns once every worker has, re-raising a captured panic.
func (f *fanout) wait() {
	f.wg.Wait()
	if f.value != nil {
		panic(f.value)
	}
}

// ForEach runs fn(i) for every i in [0, n), on up to limit goroutines that
// the lane budget grants, and on the caller's when it grants none. Items are
// claimed from an atomic cursor, so load balances dynamically; callers get
// determinism by following the package contract. ForEach returns when every
// item has completed. A panic in fn ends its worker and is re-raised on the
// caller once the other workers have drained the cursor.
func ForEach(limit, n int, fn func(i int)) {
	lanes := AcquireLanes(min(limit, n) - 1)
	defer ReleaseLanes(lanes)
	if lanes == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var f fanout
	f.wg.Add(lanes + 1)
	for w := 0; w <= lanes; w++ {
		//mcmlint:ignore hotalloc worker spawn runs once per call, not per item; the goroutine itself is the allocation
		go func() {
			var i int
			defer f.wg.Done()
			defer func() { f.record(i, recover()) }()
			for {
				i = int(f.cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	f.wait()
}

// MapErr runs fn(i) for every i in [0, n) as ForEach does and returns the
// results in index order. All items run regardless of failures (each is
// independent under the contract); the returned error is the one from the
// lowest failing index, so the error a caller sees is also deterministic
// across worker counts.
func MapErr[T any](limit, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(limit, n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ForEachBlock splits [0, n) into one contiguous block per worker, on up to
// limit workers that the lane budget grants, and runs fn(arg, worker, lo, hi)
// for every block concurrently; it returns how many workers ran, each on a
// non-empty block. It is the primitive for stages that need per-worker state
// (a solver replica, a policy clone): the worker index selects the replica,
// while per-item seeding inside [lo, hi) keeps outputs independent of the
// split. Blocks differ in size by at most one item. A panic in fn is
// re-raised on the caller once every block has returned.
//
// fn and its operands arrive as separate arguments — a top-level function or
// method expression and a value — so that only the fan-out path builds a
// closure: when the budget grants no lane, the call runs fn(arg, 0, 0, n)
// and allocates nothing.
func ForEachBlock[T any](limit, n int, fn func(arg T, worker, lo, hi int), arg T) int {
	lanes := AcquireLanes(min(limit, n) - 1)
	defer ReleaseLanes(lanes)
	if lanes == 0 {
		if n <= 0 {
			return 0
		}
		fn(arg, 0, 0, n)
		return 1
	}
	workers := lanes + 1
	var f fanout
	f.wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := blockBounds(w, workers, n)
		//mcmlint:ignore hotalloc worker spawn runs once per call, not per item; the goroutine itself is the allocation
		go func() {
			defer f.wg.Done()
			defer func() { f.record(w, recover()) }()
			fn(arg, w, lo, hi)
		}()
	}
	f.wait()
	return workers
}

// blockBounds returns worker w's contiguous slice of [0, n).
func blockBounds(w, workers, n int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}
