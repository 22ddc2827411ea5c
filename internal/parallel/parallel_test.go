package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestSetDefault(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	if got := SetDefault(3); got != 3 || Default() != 3 {
		t.Fatalf("SetDefault(3) = %d, Default() = %d", got, Default())
	}
	if got := SetDefault(0); got < 1 {
		t.Fatalf("SetDefault(0) = %d, want NumCPU fallback", got)
	}
}

// budget sets the process default to n workers for the rest of the test,
// so that a fan-out is granted up to n-1 lanes whatever the host's CPUs.
func budget(t testing.TB, n int) {
	old := Default()
	t.Cleanup(func() { SetDefault(old) })
	SetDefault(n)
}

func TestForEachCoversAllItems(t *testing.T) {
	budget(t, 8)
	for _, workers := range []int{1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]atomic.Int64, n)
			ForEach(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: item %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestMapErrOrdered(t *testing.T) {
	budget(t, 8)
	got, err := MapErr(8, 50, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("MapErr[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapErrLowestIndexWins(t *testing.T) {
	budget(t, 8)
	errAt := func(bad ...int) error {
		_, err := MapErr(8, 40, func(i int) (int, error) {
			for _, b := range bad {
				if i == b {
					return 0, fmt.Errorf("item %d failed", i)
				}
			}
			return i, nil
		})
		return err
	}
	if err := errAt(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	// Regardless of scheduling, the reported error is from the lowest index.
	for trial := 0; trial < 10; trial++ {
		err := errAt(31, 7, 22)
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("MapErr error = %v, want item 7 failed", err)
		}
	}
}

func TestMapErrRunsAllItems(t *testing.T) {
	var ran atomic.Int64
	_, err := MapErr(4, 20, func(i int) (struct{}, error) {
		ran.Add(1)
		if i%3 == 0 {
			return struct{}{}, errors.New("boom")
		}
		return struct{}{}, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran.Load() != 20 {
		t.Fatalf("ran %d items, want all 20", ran.Load())
	}
}

// TestForEachBlockPartition: the blocks cover [0, n) once, none is empty,
// and ForEachBlock reports as many workers as ran blocks — min(limit, n)
// under a budget that covers them, Default() under one that does not.
func TestForEachBlockPartition(t *testing.T) {
	budget(t, 8)
	for _, limit := range []int{1, 3, 8, 100} {
		for _, n := range []int{0, 1, 7, 64} {
			hits := make([]atomic.Int64, n)
			var seen atomic.Int64 // a bit per worker index
			ran := ForEachBlock(limit, n, func(hits []atomic.Int64, w, lo, hi int) {
				if lo >= hi {
					t.Errorf("empty block dispatched: [%d,%d)", lo, hi)
				}
				seen.Or(1 << w)
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			}, hits)
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("limit=%d n=%d: item %d covered %d times", limit, n, i, got)
				}
			}
			if want := min(limit, n, Default()); ran != want || seen.Load() != 1<<want-1 {
				t.Fatalf("limit=%d n=%d: ForEachBlock reported %d workers, ran %b, want %d", limit, n, ran, seen.Load(), want)
			}
		}
	}
}

// TestSerialFanoutAllocatesNothing: a ForEachBlock the budget grants no
// lane runs fn on the caller and allocates nothing, whatever its limit —
// the path every row-block stage nested inside another fan-out takes.
func TestSerialFanoutAllocatesNothing(t *testing.T) {
	budget(t, 1)
	sums := make([]int, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if ran := ForEachBlock(8, 64, func(sums []int, w, lo, hi int) { sums[w] += hi - lo }, sums); ran != 1 {
			t.Fatalf("ForEachBlock ran %d workers under a budget of one", ran)
		}
	})
	if allocs != 0 {
		t.Fatalf("a serial ForEachBlock allocates %v times per call, want 0", allocs)
	}
}

func TestSeedIndependentOfWorkerCount(t *testing.T) {
	budget(t, 8)
	const base, n = 42, 64
	draw := func(workers int) []float64 {
		out := make([]float64, n)
		ForEach(workers, n, func(i int) { out[i] = Rng(base, i).Float64() })
		return out
	}
	want := draw(1)
	for _, workers := range []int{2, 4, 8} {
		got := draw(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d drew %v, want %v (workers=1)", workers, i, got[i], want[i])
			}
		}
	}
}

func TestSeedDecorrelated(t *testing.T) {
	// Adjacent indices and adjacent bases must yield distinct seeds; a
	// collision here would silently correlate parallel trials.
	seen := map[int64]string{}
	for base := int64(0); base < 50; base++ {
		for i := 0; i < 50; i++ {
			s := Seed(base, i)
			key := fmt.Sprintf("base=%d i=%d", base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

func TestLaneBudget(t *testing.T) {
	budget(t, 4) // 3 extra lanes
	if got := AcquireLanes(10); got != 3 {
		t.Fatalf("AcquireLanes(10) = %d, want 3", got)
	}
	if got := AcquireLanes(1); got != 0 {
		t.Fatalf("AcquireLanes on drained budget = %d, want 0", got)
	}
	ReleaseLanes(2)
	if got := AcquireLanes(5); got != 2 {
		t.Fatalf("AcquireLanes after partial release = %d, want 2", got)
	}
	ReleaseLanes(3)
	if got := AcquireLanes(0); got != 0 {
		t.Fatalf("AcquireLanes(0) = %d, want 0", got)
	}
}

// TestLanesReturnAfterNestedFanout pins the budget's bookkeeping: whatever
// nest of fan-outs ran, and however it ended — a panic on an inner block is
// re-raised by fanout.wait through every level's deferred release — a fresh
// reservation is granted Default()-1 lanes again, and while the nest runs
// it never holds more than that many goroutines beyond its caller.
func TestLanesReturnAfterNestedFanout(t *testing.T) {
	budget(t, 4)
	var running, peak atomic.Int64
	// site nests the primitive depth levels deep, each level as wide as n.
	var site func(depth, n int, leaf func(i int))
	site = func(depth, n int, leaf func(i int)) {
		ForEachBlock(n, n, func(leaf func(i int), _, lo, hi int) {
			for i := lo; i < hi; i++ {
				if depth > 0 {
					site(depth-1, n, leaf)
					continue
				}
				now := running.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				leaf(i)
				running.Add(-1)
			}
		}, leaf)
	}
	for _, tc := range []struct {
		name string
		leaf func(i int)
		want any
	}{
		{"returns", func(int) {}, nil},
		{"inner block panics", func(i int) {
			if i == 3 {
				running.Add(-1)
				panic("inner")
			}
		}, "inner"},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Fatalf("%s: recovered %v, want %v", tc.name, r, tc.want)
				}
			}()
			site(2, 6, tc.leaf)
		}()
		if got := running.Load(); got != 0 {
			t.Fatalf("%s: %d leaves still running", tc.name, got)
		}
		if got := peak.Load(); got > int64(Default()) {
			t.Fatalf("%s: %d leaves ran at once under a budget of %d", tc.name, got, Default())
		}
		if got := AcquireLanes(100); got != Default()-1 {
			t.Fatalf("%s: a fresh reservation got %d lanes, want %d", tc.name, got, Default()-1)
		} else {
			ReleaseLanes(got)
		}
	}
}

func TestForEachNested(t *testing.T) {
	// Nested fan-out must not deadlock and must cover the full grid.
	var hits [8][8]atomic.Int64
	ForEach(4, 8, func(i int) {
		ForEach(4, 8, func(j int) { hits[i][j].Add(1) })
	})
	for i := range hits {
		for j := range hits[i] {
			if hits[i][j].Load() != 1 {
				t.Fatalf("cell (%d,%d) ran %d times", i, j, hits[i][j].Load())
			}
		}
	}
}

// TestWorkerPanicReachesCaller pins panic containment: a panic on a worker
// goroutine is re-raised on the goroutine that called ForEach/ForEachBlock,
// where a deferred recover sees it, and of several panics the lowest index
// (ForEach's item, ForEachBlock's worker) wins.
func TestWorkerPanicReachesCaller(t *testing.T) {
	budget(t, 4)
	recovered := func(run func()) (r any) {
		defer func() { r = recover() }()
		run()
		return nil
	}
	var ran atomic.Int64
	r := recovered(func() {
		ForEach(4, 64, func(i int) {
			ran.Add(1)
			if i == 5 || i == 40 {
				panic(fmt.Sprintf("item %d", i))
			}
		})
	})
	if r != "item 5" {
		t.Fatalf("ForEach: recovered %v, want the lowest panicking item's value", r)
	}
	if ran.Load() != 64 {
		t.Fatalf("ForEach: %d of 64 items ran; the surviving workers must drain the cursor", ran.Load())
	}
	r = recovered(func() {
		ForEachBlock(4, 8, func(_ struct{}, w, lo, hi int) {
			if w >= 2 {
				panic(fmt.Sprintf("worker %d", w))
			}
		}, struct{}{})
	})
	if r != "worker 2" {
		t.Fatalf("ForEachBlock: recovered %v, want the lowest panicking worker's value", r)
	}
}

func BenchmarkForEachOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(4, 256, func(int) {})
	}
}

func BenchmarkSeededFanout(b *testing.B) {
	// A coarse-grained seeded fan-out: the shape every experiment loop uses.
	work := func(rng *rand.Rand) float64 {
		var acc float64
		for k := 0; k < 20000; k++ {
			acc += rng.Float64()
		}
		return acc
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=default", Default()}} {
		b.Run(tc.name, func(b *testing.B) {
			out := make([]float64, 64)
			for i := 0; i < b.N; i++ {
				ForEach(tc.workers, len(out), func(j int) { out[j] = work(Rng(1, j)) })
			}
		})
	}
}
