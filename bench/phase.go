package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mcmpart"
)

// opOutcome is what one op returned and how long the client waited for it.
type opOutcome struct {
	lat    time.Duration
	traced bool
	// renamed marks serve-warm's different-bytes-same-fingerprint class.
	renamed bool

	// Planner workloads fill res directly; HTTP workloads fill status and
	// body in run and decode them in verify, outside the timed segment.
	res    *mcmpart.Result
	status int
	body   []byte
	err    error
}

// opTrace is handed to an op that runs in a traced segment.
type opTrace struct {
	tr   *tracer
	op   int
	root int
}

// instance is one set-up of a workload: the system under test plus the
// generated inputs, ready to run ops by index. Negative indices are warm-up
// ops: the same kind of op, never measured, never colliding with a measured
// op's cache key.
type instance struct {
	svc *mcmpart.Service // nil for in-process planner workloads

	// prepare does the client-side work ops [lo,hi) need (request bodies)
	// before their segment's clock starts; nil when there is none.
	prepare func(lo, hi int)
	// run executes op i and returns once the caller has its plan.
	run func(ctx context.Context, i int, ot *opTrace) opOutcome
	// verify checks op i's outcome and fills o.res for HTTP workloads.
	verify func(i int, o *opOutcome) error
	// recheck runs after the measured phase: the untimed bit-identity
	// comparisons against plans made without the cache and without HTTP.
	recheck func(ctx context.Context, outcomes []opOutcome) []error
	// warmOps is how many warm-up ops precede the measured phase.
	warmOps int
	close   func()

	// bodyHash folds the request body of every verified op, in op order
	// (HTTP workloads), so two runs of one seed can be compared byte for byte.
	bodyHash func() string
}

// phase is the result of one measured phase.
type phase struct {
	outcomes []opOutcome
	failures []error
	calib    []float64 // reference-kernel samples, ms
	segs     []segment

	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	cpu                 time.Duration

	before, after mcmpart.ServiceStats
	warmSum       [2]float64 // Δsum, Δcount of mcmpart_plan_seconds{path="warm"}
	coldSum       [2]float64
}

// segment is one stretch of back-to-back ops between two calibration pauses.
type segment struct {
	lo, hi int
	wall   time.Duration
	// calib is the median of the reference-kernel samples taken in the
	// pauses on both sides of the segment, ms.
	calib float64
}

// measure runs ops [0,sz.ops) as a closed loop: `clients` callers, each waiting
// for its plan before asking again, in segments of segOps ops per client.
// Between segments every client is parked and the reference kernel runs
// alone, so calibration never overlaps an op. With a tracer, odd segments
// are traced and even ones are not, which puts both sides of the tracing
// overhead ratio in one run.
func measure(ctx context.Context, in *instance, sz sizing, cal *calibrator, tr *tracer) *phase {
	n := sz.ops
	ph := &phase{outcomes: make([]opOutcome, n)}
	if in.svc != nil {
		ph.before = in.svc.Stats()
		ph.warmSum = planSeconds(in.svc, "warm")
		ph.coldSum = planSeconds(in.svc, "cold")
	}
	perSeg := sz.clients * sz.segOps
	var m0, m1 runtime.MemStats
	for lo, seg := 0, 0; lo < n; lo, seg = lo+perSeg, seg+1 {
		hi := min(lo+perSeg, n)
		cal.sample(sz.calibPerGap, &ph.calib, tr)
		ph.closeSegment(sz.calibPerGap)
		if in.prepare != nil {
			in.prepare(lo, hi)
		}
		traced := tr != nil && seg%2 == 1
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < sz.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := lo + c; i < hi; i += sz.clients {
					var ot *opTrace
					if traced {
						ot = &opTrace{tr: tr, op: i, root: tr.beginOp("op", 0, i)}
					}
					t := time.Now()
					o := in.run(ctx, i, ot)
					o.lat = time.Since(t)
					o.traced = traced
					if ot != nil {
						tr.end(ot.root)
					}
					ph.outcomes[i] = o
				}
			}(c)
		}
		wg.Wait()
		ph.segs = append(ph.segs, segment{lo: lo, hi: hi, wall: time.Since(start)})
		ph.cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		ph.mallocs += m1.Mallocs - m0.Mallocs
		ph.gcCycles += m1.NumGC - m0.NumGC
		ph.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		//mcmlint:ignore ctxloop checking finished ops takes no samples; a cancelled ctx fails the ops themselves
		for i := lo; i < hi; i++ {
			if err := in.verify(i, &ph.outcomes[i]); err != nil {
				ph.outcomes[i].err = err
				ph.failures = append(ph.failures, err)
			}
		}
	}
	cal.sample(sz.calibPerGap, &ph.calib, tr)
	ph.closeSegment(sz.calibPerGap)
	if in.svc != nil {
		ph.after = in.svc.Stats()
		w, c := planSeconds(in.svc, "warm"), planSeconds(in.svc, "cold")
		ph.warmSum = [2]float64{w[0] - ph.warmSum[0], w[1] - ph.warmSum[1]}
		ph.coldSum = [2]float64{c[0] - ph.coldSum[0], c[1] - ph.coldSum[1]}
	}
	return ph
}

// closeSegment gives the last segment its calibration reading once the pause
// after it has been sampled: the median of the two pauses around it.
func (ph *phase) closeSegment(perGap int) {
	if len(ph.segs) == 0 {
		return
	}
	around := ph.calib[len(ph.calib)-min(2*perGap, len(ph.calib)):]
	ph.segs[len(ph.segs)-1].calib = median(around)
}

// wall is the measured wall time: the segments, without the pauses.
func (ph *phase) wall() time.Duration {
	var d time.Duration
	for _, sg := range ph.segs {
		d += sg.wall
	}
	return d
}

// latencies returns the op latencies in ms that keep(o) selects.
func (ph *phase) latencies(keep func(o *opOutcome) bool) []float64 {
	var out []float64
	for i := range ph.outcomes {
		if o := &ph.outcomes[i]; keep == nil || keep(o) {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation, 0
// for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrRatio is the interquartile range as a share of the median.
func iqrRatio(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// ratio is a/b with 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
