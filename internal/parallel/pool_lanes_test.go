package parallel_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"mcmpart/internal/mat"
	"mcmpart/internal/parallel"
)

// blocks counts the calls of a row-block kernel and the rows they cover.
type blocks struct{ calls, rows atomic.Int64 }

func (b *blocks) kernel(_, lo, hi int) {
	b.calls.Add(1)
	b.rows.Add(int64(hi - lo))
}

// TestPoolTasksHoldTheirLanes: under a budget of two workers, a pool task
// that runs alone leaves the spare lane to the fan-outs inside it, so a
// row-block stage splits in two; a task that starts while another runs
// holds that lane until it ends, so while two run a row-block stage inside
// either runs serially; and once they end the lane is back in the budget.
func TestPoolTasksHoldTheirLanes(t *testing.T) {
	old := parallel.Default()
	parallel.SetDefault(2)
	defer parallel.SetDefault(old)
	const rows = 64
	stage := func() *blocks {
		var b blocks
		mat.RowBlocks(rows, mat.ParallelFlopThreshold, (*blocks).kernel, &b)
		return &b
	}
	p := parallel.NewPool(2, 4)
	defer p.Close()

	done := make(chan *blocks)
	if err := p.TrySubmit(func() { done <- stage() }); err != nil {
		t.Fatal(err)
	}
	if b := <-done; b.calls.Load() != 2 || b.rows.Load() != rows {
		t.Fatalf("a lone task's stage ran in %d blocks over %d rows, want 2 over %d", b.calls.Load(), b.rows.Load(), rows)
	}

	// Each task runs its stage once both are running, and ends once both
	// have run it.
	var running, staged sync.WaitGroup
	running.Add(2)
	staged.Add(2)
	for i := 0; i < 2; i++ {
		if err := p.TrySubmit(func() {
			running.Done()
			running.Wait()
			b := stage()
			staged.Done()
			staged.Wait()
			done <- b
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if b := <-done; b.calls.Load() != 1 || b.rows.Load() != rows {
			t.Errorf("with two tasks running a stage ran in %d blocks over %d rows, want 1 over %d", b.calls.Load(), b.rows.Load(), rows)
		}
	}
	p.Close()
	lanes := parallel.AcquireLanes(1)
	parallel.ReleaseLanes(lanes)
	if lanes != 1 {
		t.Fatalf("after the tasks ended the budget grants %d lanes, want 1", lanes)
	}
}
