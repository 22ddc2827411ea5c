package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEverythingAdmitted(t *testing.T) {
	p := NewPool(4, 64)
	var ran atomic.Int64
	const n = 64
	for i := 0; i < n; i++ {
		for {
			err := p.TrySubmit(func() { ran.Add(1) })
			if err == nil {
				break
			}
			if !errors.Is(err, ErrPoolFull) {
				t.Fatalf("unexpected submit error: %v", err)
			}
		}
	}
	p.Close()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d admitted tasks", got, n)
	}
}

func TestPoolBoundedQueue(t *testing.T) {
	p := NewPool(1, 2)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	if err := p.TrySubmit(func() { defer wg.Done(); close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started // the blocking task now occupies the worker, not the queue
	// Fill the queue behind the blocked worker, then expect ErrPoolFull.
	admitted := 0
	for i := 0; i < 10; i++ {
		if err := p.TrySubmit(func() {}); err == nil {
			admitted++
		} else if errors.Is(err, ErrPoolFull) {
			break
		} else {
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if admitted != 2 {
		t.Fatalf("queue admitted %d tasks, capacity is 2", admitted)
	}
	if err := p.TrySubmit(func() {}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("want ErrPoolFull, got %v", err)
	}
	close(release)
	wg.Wait()
	p.Close()
}

func TestPoolClosedRejectsAndIsIdempotent(t *testing.T) {
	p := NewPool(2, 2)
	p.Close()
	p.Close()
	if err := p.TrySubmit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("want ErrPoolClosed, got %v", err)
	}
}

// TestPoolConcurrentSubmitters is for -race: submitters race each other and
// Close. Every task admitted before Close runs, and after it TrySubmit
// refuses.
func TestPoolConcurrentSubmitters(t *testing.T) {
	p := NewPool(4, 256)
	var ran atomic.Int64
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				switch err := p.TrySubmit(func() { ran.Add(1) }); {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, ErrPoolClosed):
					return
				case !errors.Is(err, ErrPoolFull):
					t.Errorf("TrySubmit: %v", err)
					return
				}
			}
		}()
	}
	for admitted.Load() < 100 && !t.Failed() {
		runtime.Gosched()
	}
	p.Close()
	wg.Wait()
	if ran.Load() != admitted.Load() {
		t.Fatalf("admitted %d but ran %d", admitted.Load(), ran.Load())
	}
}

func TestPoolDefaults(t *testing.T) {
	p := NewPool(0, 0)
	defer p.Close()
	if p.Workers() != Default() {
		t.Fatalf("workers = %d, want process default %d", p.Workers(), Default())
	}
	if p.QueueCap() != 4*Default() {
		t.Fatalf("queue cap = %d, want %d", p.QueueCap(), 4*Default())
	}
}
