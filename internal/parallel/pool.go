package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Pool errors.
var (
	// ErrPoolClosed is returned by TrySubmit after Close.
	ErrPoolClosed = errors.New("parallel: pool is closed")
	// ErrPoolFull is returned by TrySubmit when the task queue is at
	// capacity — the caller decides whether to shed load or retry.
	ErrPoolFull = errors.New("parallel: pool queue is full")
)

// Pool is a long-lived bounded worker pool: a fixed set of goroutines
// draining a bounded task queue. Unlike ForEach/MapErr — which fan a known
// index range out and join — a Pool serves an open-ended stream of
// independent tasks, which is what a planning service needs: admission is
// explicit (TrySubmit fails fast when the queue is full instead of
// buffering unboundedly), and Close drains what was admitted.
//
// Tasks draw on the lane budget like any fan-out: one task runs as the
// process's first goroutine, and each task that starts while another runs
// holds one lane until it ends, so that a fan-out inside a task finds the
// budget drawn down by the tasks running beside it.
//
// The determinism contract of this package still applies to what runs
// inside a task: tasks must not share mutable state except through their
// own synchronization, and any randomness must be derived from stable task
// identity (Seed), never from arrival order.
type Pool struct {
	tasks   chan func()
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool // guarded by mu
	workers int
	// busy counts workers currently executing a task — the live occupancy
	// a telemetry gauge reads (QueueLen is its queue-side counterpart).
	busy atomic.Int64
}

// NewPool starts a pool of the given size. workers <= 0 uses the process
// default (see SetDefault); queue <= 0 defaults to 4x the worker count.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = Default()
	}
	if queue <= 0 {
		queue = 4 * workers
	}
	p := &Pool{tasks: make(chan func(), queue), workers: workers}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		//mcmlint:ignore hotalloc pool startup runs once per NewPool, not per task
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				lanes := 0
				if p.busy.Add(1) > 1 {
					lanes = AcquireLanes(1)
				}
				fn()
				ReleaseLanes(lanes)
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// QueueCap returns the capacity of the task queue.
func (p *Pool) QueueCap() int { return cap(p.tasks) }

// QueueLen returns the number of tasks waiting in the queue right now —
// the live depth a dashboard watches for pressure, as opposed to
// QueueCap, the configured bound.
func (p *Pool) QueueLen() int { return len(p.tasks) }

// Busy returns how many workers are executing a task right now.
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// TrySubmit enqueues fn without blocking. It returns ErrPoolFull when the
// queue is at capacity and ErrPoolClosed after Close.
func (p *Pool) TrySubmit(fn func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- fn:
		return nil
	default:
		return ErrPoolFull
	}
}

// Close stops accepting tasks, waits for every admitted task (queued or
// running) to finish, and returns. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
