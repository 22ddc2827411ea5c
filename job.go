package mcmpart

import (
	"context"
	"sync"
	"sync/atomic"
	"unsafe"
)

// JobState is the lifecycle phase of an asynchronous plan job.
type JobState string

// Job lifecycle. Queued and Running are transient; Done, Failed, and
// Cancelled are terminal.
const (
	// JobQueued: admitted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is planning.
	JobRunning JobState = "running"
	// JobDone: the plan completed; Result is available.
	JobDone JobState = "done"
	// JobFailed: the plan errored; Err is available.
	JobFailed JobState = "failed"
	// JobCancelled: Cancel (or service shutdown) stopped the plan. If any
	// valid partition had been found by then, Result carries it
	// (best-so-far), mirroring Planner.Plan's cancellation contract.
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobStatus is a point-in-time snapshot of a job: its state plus the
// running plan's progress (samples consumed, best-so-far improvement) —
// the polling surface of the per-job Progress stream.
type JobStatus struct {
	// ID identifies the job within its Service.
	ID string `json:"id"`
	// State is the lifecycle phase at snapshot time.
	State JobState `json:"state"`
	// Cached reports that the result was served from the plan cache
	// without consuming a worker.
	Cached bool `json:"cached"`
	// Coalesced reports that the request shared another request's
	// in-flight computation (single-flight) instead of planning itself.
	Coalesced bool `json:"coalesced,omitempty"`
	// Samples and BestImprovement mirror the plan's Progress stream:
	// evaluations consumed so far and the best-so-far improvement over the
	// greedy baseline.
	Samples         int     `json:"samples"`
	BestImprovement float64 `json:"best_improvement,omitempty"`
	// Error is the failure message of a failed (or cancelled) job.
	Error string `json:"error,omitempty"`
	// RequestID echoes the caller-supplied request ID (WithRequestID, or
	// the X-Request-ID header over HTTP) so job progress correlates with
	// the request logs. Empty when the caller supplied none.
	RequestID string `json:"request_id,omitempty"`
}

// requestIDKey carries a request ID through a context.
type requestIDKey struct{}

// WithRequestID returns a context carrying a caller-chosen request ID.
// Submit stamps it into the job it admits, so status payloads and
// structured logs share one correlation handle.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the request ID from ctx ("" when absent).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Job is one asynchronous plan submitted to a Service. A Job is handed out
// by Service.Submit and remains valid after completion (the Service retains
// terminal jobs within a byte bound for status queries). The retained
// result is never handed out: Result returns a deep copy each time, so no
// two callers (and no caller plus what the Service keeps) ever alias the
// same Result.
type Job struct {
	id string
	// requestID is the caller's correlation ID (immutable after Submit).
	requestID string
	// progress is the caller's PlanOptions.Progress (immutable after
	// Submit; may be nil). A coalesced job's receives the leader's stream.
	progress ProgressFunc
	// tier is what serves the job (immutable after Submit): a cache tier
	// for a hit, tierCoalesced for a job riding another request's
	// in-flight plan, tierPlanner for a flight's leader.
	tier string
	// deployed reports that a plan this job ran reused the deployment an
	// earlier plan of its graph built (Planner.deploy).
	deployed atomic.Bool
	// ctx is the job's execution context: derived from the service
	// lifecycle, cancelled by Cancel.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	state JobState // guarded by mu
	// pos is the canonical position of each of the submitted graph's node
	// IDs (nil is the identity): finish reads the canonically ordered result
	// it is handed through pos, so the retained partition is indexed by
	// this job's own node IDs — and then drops pos, so a retained job does
	// not pin a slice the size of its graph.
	pos     []int   // guarded by mu
	samples int     // guarded by mu
	best    float64 // guarded by mu
	result  *Result // guarded by mu
	err     error   // guarded by mu
}

// ID returns the job's Service-unique identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns a snapshot of the job's state and progress.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:              j.id,
		State:           j.state,
		Cached:          j.state.Terminal() && (j.tier == tierMemory || j.tier == tierDisk),
		Coalesced:       j.tier == tierCoalesced,
		Samples:         j.samples,
		BestImprovement: j.best,
		RequestID:       j.requestID,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Result returns the job's result and error once terminal ((nil, nil)
// before then). A cancelled job may carry both: the best-so-far result and
// the cancellation error. The result is the caller's own: this is the one
// place a plan leaves the Service, and the one deep copy on its way (the
// isolation contract, DESIGN.md §8).
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, nil
	}
	return cloneResult(j.result), j.err
}

// Wait blocks until the job is terminal or ctx is done. When ctx wins, Wait
// returns ctx.Err() and the job keeps running — pair Wait with Cancel for
// give-up-and-stop semantics (awaitJob, behind Service.Plan, does exactly
// that).
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel asks the job to stop. A queued job finishes cancelled without
// planning; a running job stops at the next sample boundary and keeps its
// best-so-far result. Cancel returns immediately; observe completion via
// Wait or Done. Cancelling a terminal job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// The tiers a job is served by (Job.tier).
const (
	tierMemory    = "memory"
	tierDisk      = "disk"
	tierCoalesced = "coalesced"
	tierPlanner   = "planner"
)

// served reports the tier that serves the job and whether a plan it ran
// reused a deployment — what its request's log line says of it.
func (j *Job) served() (tier string, deploymentReused bool) {
	return j.tier, j.deployed.Load()
}

// markRunning flips a queued job to running; it reports false if the job
// already finished (e.g. cancelled while queued).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	return true
}

// recordProgress is the per-job progress sink the Service wires into the
// plan's ProgressFunc: it updates the snapshot pollers see, then streams to
// the caller's callback.
func (j *Job) recordProgress(ev ProgressEvent) {
	j.mu.Lock()
	j.samples = ev.Samples
	j.best = ev.BestImprovement
	j.mu.Unlock()
	if j.progress != nil {
		j.progress(ev)
	}
}

// finish moves the job to a terminal state exactly once, reporting whether
// this call made the transition. res is in canonical node order (see
// canonicalize) and shared with whatever else the Service keeps for the key
// — a cache entry, the flight's other jobs — so finish reads it and never
// writes it: the retained result is res's fields around a partition of its
// own, in the job's node order. The winner must call release once its
// accounting is done: Done() does not fire here, so that a waiter it wakes
// finds the service's counters already moved.
func (j *Job) finish(state JobState, res *Result, err error) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.result = res
	if res != nil && len(j.pos) == len(res.Partition) {
		own := *res
		own.Partition = make(Partition, len(j.pos))
		for v, p := range j.pos {
			own.Partition[v] = res.Partition[p]
		}
		j.result = &own
	}
	j.pos = nil
	j.err = err
	if res != nil {
		j.samples = res.Samples
		j.best = res.Improvement
	}
	j.mu.Unlock()
	return true
}

// release fires Done() and releases the job's child context, so a
// long-lived service does not accumulate one cancel registration per
// request ever served. Only the caller whose finish returned true calls it.
func (j *Job) release() {
	j.cancel()
	close(j.done)
}

// bytes is what the Service's retired jobs count for a terminal job: the
// entry, the Job with its ended context and closed done channel (256
// bytes), its ID and request ID, its result and its error's message.
func (j *Job) bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := entryBytes + 256 + int64(unsafe.Sizeof(*j)) + int64(len(j.id)+len(j.requestID)) + resultBytes(j.result)
	if j.err != nil {
		n += int64(len(j.err.Error()))
	}
	return n
}
