package mcmpart

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"
	"unsafe"

	"mcmpart/internal/faultinject"
	"mcmpart/internal/graph"
	"mcmpart/internal/parallel"
	"mcmpart/internal/plancache"
	"mcmpart/internal/rl"
	"mcmpart/internal/telemetry"
)

// Service errors.
var (
	// ErrServiceClosed is returned by Submit, Plan, and PlanBatch after
	// Close, and while the service is draining (BeginDrain/Drain). Over
	// HTTP it maps to 503 with a Retry-After header — a load balancer's
	// signal to route elsewhere and retry.
	ErrServiceClosed = errors.New("mcmpart: service is closed")
	// ErrBusy is returned by Submit when the job queue is at capacity —
	// the admission-control signal; callers shed load or retry later.
	ErrBusy = errors.New("mcmpart: service queue is full")
	// ErrPolicyRequired is returned by Planner.Plan and Service.Submit when
	// a deployed-policy method (MethodZeroShot, MethodFineTune) is requested
	// but no pre-trained policy is installed or available in the registry.
	// Over HTTP it maps to 409 Conflict, and Client maps 409 back to it.
	ErrPolicyRequired = errors.New("mcmpart: a pre-trained policy is required")
	// ErrPlanPanic wraps a panic recovered from a planning worker: the job
	// fails with a typed error and the service keeps serving — one
	// poisoned request must not take the node down. Over HTTP it maps to
	// 500, which Client maps back and does not retry.
	ErrPlanPanic = errors.New("mcmpart: plan panicked")
	// ErrInvalidRequest wraps every request-validation failure — a nil
	// graph, a negative budget or seed, an unknown method. Over HTTP it
	// maps to 400 Bad Request, and Client maps 400 back to it, so
	// errors.Is(err, ErrInvalidRequest) distinguishes "fix the request"
	// from transient service states in-process and across the wire alike.
	ErrInvalidRequest = errors.New("mcmpart: invalid request")
	// ErrNoPlan is returned by Plan when the search exhausts its sample
	// budget without finding any valid partition, and by the baseline
	// stage when even the greedy layout does not fit the package. Over HTTP
	// it maps to 422, which Client maps back and does not retry.
	ErrNoPlan = errors.New("mcmpart: no valid partition found")
)

// ServiceOptions configure NewService. The zero value is a working
// configuration: process-default workers, a 4x queue, no disk tier, no
// policy directory, and no log output. What the service keeps between
// requests is bounded in bytes by constants, not options (DESIGN.md §8,
// "What outlives a request").
type ServiceOptions struct {
	// Workers is the number of plans that may run concurrently
	// (0 = process default, see internal worker-pool default; negative is
	// an error).
	Workers int
	// QueueDepth bounds how many admitted jobs may wait for a worker
	// (0 = 4x Workers; negative is an error). When the queue is full,
	// Submit returns ErrBusy.
	QueueDepth int
	// CacheDir, when set, opens a crash-safe persistent plan-cache tier
	// under the in-memory LRU (created if missing). Completed plans are
	// written through (temp file + fsync + atomic rename, versioned and
	// checksummed), and in-memory misses consult the directory lazily, so
	// plans survive restarts with O(1) startup cost. Corrupt, truncated,
	// or stale-version entries are quarantined and logged, never served.
	CacheDir string
	// PolicyDir, when set, opens a directory-backed policy registry
	// (created if missing). At startup — and lazily at plan time whenever
	// no policy is installed — the service installs the newest registry
	// policy matching its package, enabling MethodZeroShot and
	// MethodFineTune without an explicit Pretrain.
	PolicyDir string
	// Logger receives the service's log stream: one structured line per
	// HTTP request served through NewHTTPHandler (method, route, status,
	// duration, request ID) and one per disk-tier quarantine or write
	// failure. nil discards it (metrics are recorded either way).
	Logger *slog.Logger
}

// ServiceStats is a point-in-time operational snapshot of a Service. Every
// field with a `metric` tag is a read of the series it names on the
// telemetry registry GET /metrics serves (Service.Metrics), so the JSON and
// Prometheus views cannot disagree; DESIGN.md §14 documents the names as a
// stable contract. Tagged fields are read in declaration order, which is
// why the Jobs block precedes the Cache block (see Stats).
type ServiceStats struct {
	Package            string `json:"package"`
	PackageFingerprint string `json:"package_fingerprint"`
	Workers            int    `json:"workers" metric:"mcmpart_workers"`
	// QueueDepth is the number of admitted jobs waiting for a worker right
	// now — the live pressure signal. QueueCapacity is the configured
	// bound admission sheds at (historically QueueDepth reported the
	// capacity; the live depth is what a dashboard needs).
	QueueDepth    int `json:"queue_depth" metric:"mcmpart_queue_depth"`
	QueueCapacity int `json:"queue_capacity" metric:"mcmpart_queue_capacity"`

	JobsSubmitted uint64 `json:"jobs_submitted" metric:"mcmpart_jobs_submitted_total"`
	JobsQueued    int    `json:"jobs_queued" metric:"mcmpart_jobs_queued"`
	JobsRunning   int    `json:"jobs_running" metric:"mcmpart_jobs_running"`
	JobsDone      uint64 `json:"jobs_done" metric:"mcmpart_jobs_total{state=\"done\"}"`
	JobsFailed    uint64 `json:"jobs_failed" metric:"mcmpart_jobs_total{state=\"failed\"}"`
	JobsCancelled uint64 `json:"jobs_cancelled" metric:"mcmpart_jobs_total{state=\"cancelled\"}"`
	// JobsShed counts submissions rejected with ErrBusy because the queue
	// was full — load the service refused, which JobsSubmitted never saw.
	JobsShed uint64 `json:"jobs_shed" metric:"mcmpart_jobs_shed_total"`

	// CacheHits/CacheMisses partition *admitted* jobs by their in-memory
	// cache outcome: every job counts on exactly one side, a rejected
	// submission (shed, draining) on neither — so CacheHits+CacheMisses
	// equals JobsSubmitted once the service is quiescent. Coalesced
	// requests and disk-tier hits are memory misses.
	CacheHits    uint64 `json:"cache_hits" metric:"mcmpart_cache_hits_total{tier=\"memory\"}"`
	CacheMisses  uint64 `json:"cache_misses" metric:"mcmpart_cache_misses_total{tier=\"memory\"}"`
	CacheEntries int    `json:"cache_entries" metric:"mcmpart_cache_entries"`

	// PlansExecuted counts actual planner invocations; PlansCoalesced
	// counts requests that shared another request's in-flight computation
	// instead of planning. Under single-flight, N concurrent identical
	// cold requests add 1 to the former and N-1 to the latter.
	PlansExecuted  uint64 `json:"plans_executed" metric:"mcmpart_plans_executed_total"`
	PlansCoalesced uint64 `json:"plans_coalesced" metric:"mcmpart_plans_coalesced_total"`
	// DeploymentReuses counts executed plans by a deployed-policy method
	// (zero-shot, fine-tune) that ran from their graph's deployment — its
	// context, encoding and an idle environment, built by an earlier plan
	// of the identical graph under the same installed policy — instead of
	// building their own. At quiescence it is at most PlansExecuted.
	DeploymentReuses uint64 `json:"deployment_reuses" metric:"mcmpart_deployment_reuses_total"`
	// RL-from-scratch plans by what they ran on: RLPlansNewKit built a kit,
	// which its graph's entry in the training store keeps; RLPlansReusedKit
	// ran on an idle kit an earlier plan of the identical graph left. Their
	// sum counts every RL plan the planner ran (a library caller's too), and
	// the share of the second is the share of RL plans the training store
	// served.
	RLPlansNewKit    uint64 `json:"rl_plans_new_kit" metric:"mcmpart_rl_plans_total{kit=\"new\"}"`
	RLPlansReusedKit uint64 `json:"rl_plans_reused_kit" metric:"mcmpart_rl_plans_total{kit=\"reused\"}"`
	// What the stores that outlive a request keep right now, counted from
	// shapes, each within its bound (DESIGN.md §8, "What outlives a
	// request"): plans, keyed requests, terminal jobs, the installed
	// policy's deployments with the kits they own, and the RL-from-scratch
	// plans' graph contexts with their idle training kits.
	CacheBytes      int64 `json:"cache_bytes" metric:"mcmpart_retained_bytes{store=\"cache\"}"`
	MemoBytes       int64 `json:"memo_bytes" metric:"mcmpart_retained_bytes{store=\"memo\"}"`
	JobBytes        int64 `json:"job_bytes" metric:"mcmpart_retained_bytes{store=\"jobs\"}"`
	DeploymentBytes int64 `json:"deployment_bytes" metric:"mcmpart_retained_bytes{store=\"deployments\"}"`
	TrainingBytes   int64 `json:"training_bytes" metric:"mcmpart_retained_bytes{store=\"training\"}"`
	// How many entries each of those stores evicted to make room, plus the
	// values it did not keep because they alone exceed its bound. The
	// deployments count on across installs.
	CacheEvictions      uint64 `json:"cache_evictions" metric:"mcmpart_evictions_total{store=\"cache\"}"`
	MemoEvictions       uint64 `json:"memo_evictions" metric:"mcmpart_evictions_total{store=\"memo\"}"`
	JobEvictions        uint64 `json:"job_evictions" metric:"mcmpart_evictions_total{store=\"jobs\"}"`
	DeploymentEvictions uint64 `json:"deployment_evictions" metric:"mcmpart_evictions_total{store=\"deployments\"}"`
	TrainingEvictions   uint64 `json:"training_evictions" metric:"mcmpart_evictions_total{store=\"training\"}"`

	// Disk tier (all zero without ServiceOptions.CacheDir). Hits are
	// in-memory misses served from disk; Quarantined counts entries set
	// aside after failing verification — corruption detected, never served.
	DiskCacheHits        uint64 `json:"disk_cache_hits" metric:"mcmpart_cache_hits_total{tier=\"disk\"}"`
	DiskCacheWrites      uint64 `json:"disk_cache_writes" metric:"mcmpart_disk_writes_total"`
	DiskCacheWriteErrors uint64 `json:"disk_cache_write_errors" metric:"mcmpart_disk_write_errors_total"`
	DiskCacheQuarantined uint64 `json:"disk_cache_quarantined" metric:"mcmpart_disk_quarantined_total"`

	// RequestMemoHits counts HTTP plan requests served through the request
	// memo: a body byte-identical to one the service keyed before, whose
	// plan was cached, answered with no decode and no fingerprint. Each is a
	// cache hit counted before it, and read after the Cache block, so
	// RequestMemoHits <= CacheHits+DiskCacheHits at quiescence.
	RequestMemoHits uint64 `json:"request_memo_hits" metric:"mcmpart_request_memo_hits_total"`
	// StructureMemoHits counts requests whose graph was not canonicalized:
	// the request memo held the fingerprint and canonical positions of its
	// raw structure (Graph.StructureDigest) — the same graph under other
	// names, other options, or both. It counts at keying, before admission,
	// so a request refused afterwards counts too.
	StructureMemoHits uint64 `json:"structure_memo_hits" metric:"mcmpart_structure_memo_hits_total"`

	// Draining reports that admission is stopped (BeginDrain/Drain/Close)
	// while previously admitted work finishes.
	Draining bool `json:"draining" metric:"mcmpart_draining"`

	PolicyInstalled   bool   `json:"policy_installed"`
	PolicyFingerprint string `json:"policy_fingerprint,omitempty"`
	RegistryPolicies  int    `json:"registry_policies"`
}

// PolicyInfo describes one policy visible to the service: the installed
// one and/or a registry artifact.
type PolicyInfo struct {
	// Path is the artifact file ("" for a policy installed via Pretrain
	// that was never saved).
	Path string `json:"path,omitempty"`
	// PackageName names the package the policy was pre-trained for.
	PackageName string `json:"package_name"`
	// PackageFingerprint is the fingerprint the artifact is bound to.
	PackageFingerprint string `json:"package_fingerprint"`
	// Seq is the registry sequence number (0 outside the registry naming
	// scheme). Higher is newer among one package's policies.
	Seq int `json:"seq"`
	// Installed marks the policy currently driving MethodZeroShot and
	// MethodFineTune plans.
	Installed bool `json:"installed"`
}

// PlanRequest is one unit of work for Submit and PlanBatch.
type PlanRequest struct {
	// Graph is the computation graph to partition.
	Graph *Graph
	// Options configure the plan exactly as in Planner.Plan. The Progress
	// callback, when set, streams from the worker goroutine running the
	// job; Job.Status additionally exposes the latest progress snapshot to
	// pollers. Coalesced requests receive the leader's progress stream.
	Options PlanOptions
}

// Service is a long-lived, concurrency-safe planning front end over a
// Planner — the process-wide object a daemon (cmd/mcmpartd) or an embedding
// application shares across all callers. It adds what a multi-tenant
// deployment needs beyond a bare Planner:
//
//   - a byte-bounded LRU plan cache keyed by canonical graph fingerprint ×
//     package fingerprint × policy fingerprint × normalized options, so
//     repeated requests for the same model return instantly and
//     bit-identically — optionally backed by a crash-safe disk tier
//     (ServiceOptions.CacheDir) that survives restarts;
//   - single-flight coalescing: concurrent requests for the same cache key
//     share one in-flight computation (the leader plans; followers wait
//     under their own contexts and receive its result in their own node
//     order);
//   - a policy registry (directory-backed) with automatic selection of the
//     newest matching policy at plan time;
//   - an async job API — Submit/Job.Wait/Status/Cancel and PlanBatch —
//     backed by a bounded worker pool with fail-fast admission (ErrBusy);
//   - a drain protocol (BeginDrain/Drain) for graceful shutdown behind a
//     load balancer, and panic containment: a panicking plan fails its job
//     with ErrPlanPanic instead of crashing the process.
//
// All methods are safe for concurrent use. Close shuts the service down.
type Service struct {
	planner  *Planner
	pkgFP    string
	cache    *planCache[string, *Result]
	memo     *planCache[[16]byte, keyedRequest] // request memo: body tag (requestTag) → its keying (submitKnown); structure tag (structureTag) → its canonicalization (keyRequest)
	memoMAC  cipher.AEAD                        // the memo's keyed tag; built once, read-only
	disk     *plancache.Store
	registry *rl.Registry
	pool     *parallel.Pool
	logger   *slog.Logger

	// root is the lifecycle context every job runs under; Close (and a
	// Drain deadline) cancels it.
	root     context.Context
	shutdown context.CancelFunc

	// jobsWG tracks every registered job from admission to its terminal
	// transition (finishJob) — what Drain waits on.
	jobsWG sync.WaitGroup

	// m holds every operational counter, gauge, and histogram, registered
	// on one telemetry registry; Stats() and GET /metrics read the same
	// instruments. now is the injectable clock behind the latency
	// histograms (a function value, so deterministic-lint stays happy and
	// tests can pin it).
	m   *serviceMetrics
	now func() time.Time

	mu sync.Mutex
	// stopped is the whole lifecycle: admission is open until BeginDrain,
	// Drain, or Close stops it, and it never reopens.
	stopped  bool               // guarded by mu
	seq      int                // guarded by mu
	inflight map[string]*flight // guarded by mu
	// live holds the jobs not yet terminal, which are never evicted; the
	// terminal transition moves a job to retired, which keeps the most
	// recently finished or looked up within retiredJobBytes.
	live    map[string]*Job // guarded by mu
	retired *planCache[string, *Job]
}

// The byte bounds of the plan cache, the request memo and the terminal
// jobs (DESIGN.md §8, "What outlives a request").
const cacheBytes, memoBytes, retiredJobBytes = 4 << 20, 4 << 20, 16 << 20

// serviceMetrics bundles the Service's instruments. Counters are never
// decremented (Prometheus monotonicity); live quantities are gauges or
// GaugeFuncs over the underlying structures. The admission contract that
// makes Stats() coherent: every admitted job increments exactly one
// memory-tier counter (hit or miss) *before* jobsSubmitted, a rejected
// submission (shed, draining) increments neither, and Stats() reads
// jobsSubmitted *before* the cache counters — so CacheHits+CacheMisses >=
// JobsSubmitted holds in every snapshot and equality holds at quiescence.
type serviceMetrics struct {
	reg *telemetry.Registry

	jobsSubmitted  *telemetry.Counter
	jobsShed       *telemetry.Counter
	jobsEnded      map[JobState]*telemetry.Counter // by terminal state; immutable after construction
	jobsQueued     *telemetry.Gauge
	jobsRunning    *telemetry.Gauge
	plansExecuted  *telemetry.Counter
	plansCoalesced *telemetry.Counter
	deployReuses   *telemetry.Counter
	memHits        *telemetry.Counter
	memMisses      *telemetry.Counter
	diskHits       *telemetry.Counter
	memoHits       *telemetry.Counter
	structureHits  *telemetry.Counter
	planCold       *telemetry.Histogram
	planWarm       *telemetry.Histogram
}

func newServiceMetrics() *serviceMetrics {
	reg := telemetry.NewRegistry()
	ended := func(state JobState) *telemetry.Counter {
		return reg.Counter("mcmpart_jobs_total", "Jobs finished, by terminal state.", telemetry.Label{Name: "state", Value: string(state)})
	}
	return &serviceMetrics{
		reg:            reg,
		jobsSubmitted:  reg.Counter("mcmpart_jobs_submitted_total", "Jobs admitted by Submit: served from cache, coalesced, or queued."),
		jobsShed:       reg.Counter("mcmpart_jobs_shed_total", "Submissions rejected with ErrBusy because the queue was full."),
		jobsEnded:      map[JobState]*telemetry.Counter{JobDone: ended(JobDone), JobFailed: ended(JobFailed), JobCancelled: ended(JobCancelled)},
		jobsQueued:     reg.Gauge("mcmpart_jobs_queued", "Admitted jobs waiting for a worker."),
		jobsRunning:    reg.Gauge("mcmpart_jobs_running", "Jobs a worker is currently planning."),
		plansExecuted:  reg.Counter("mcmpart_plans_executed_total", "Actual planner invocations (cache misses that ran)."),
		plansCoalesced: reg.Counter("mcmpart_plans_coalesced_total", "Requests that shared another request's in-flight plan."),
		deployReuses:   reg.Counter("mcmpart_deployment_reuses_total", "Executed deployed-policy plans that ran from their graph's deployment under the installed policy instead of building one."),
		memHits:        reg.Counter("mcmpart_cache_hits_total", "Plan-cache hits, by tier.", telemetry.Label{Name: "tier", Value: "memory"}),
		memMisses:      reg.Counter("mcmpart_cache_misses_total", "Plan-cache misses, by tier.", telemetry.Label{Name: "tier", Value: "memory"}),
		diskHits:       reg.Counter("mcmpart_cache_hits_total", "Plan-cache hits, by tier.", telemetry.Label{Name: "tier", Value: "disk"}),
		memoHits:       reg.Counter("mcmpart_request_memo_hits_total", "Plan requests whose body was byte-identical to one already keyed, served from the cache with no decode or fingerprint."),
		structureHits:  reg.Counter("mcmpart_structure_memo_hits_total", "Plan requests whose graph structure was canonicalized before, keyed with no fingerprint."),
		planCold:       reg.Histogram("mcmpart_plan_seconds", "Plan service latency: cold runs the planner, warm serves from cache.", telemetry.DefBuckets, telemetry.Label{Name: "path", Value: "cold"}),
		planWarm:       reg.Histogram("mcmpart_plan_seconds", "Plan service latency: cold runs the planner, warm serves from cache.", telemetry.DefBuckets, telemetry.Label{Name: "path", Value: "warm"}),
	}
}

// flight is one in-flight plan computation for one cache key: a leader job
// that actually plans, plus followers coalesced onto it. graph is the graph
// the flight plans — the first leader's; a follower's may be the same model
// in another node order, which is why the outcome travels in canonical
// order (see canonicalize).
type flight struct {
	key   string
	graph *Graph
	// opts are the key's normalized options, Progress cleared: every
	// request of a flight has the same ones, and each job carries its own
	// progress sink.
	opts PlanOptions
	// policy is the reading of the installed policy the key was built
	// from; every plan attempt of the flight runs under it.
	policy policySnapshot

	// leader hands the first leader from admit to runFlight, which tracks
	// the current one itself from then on.
	leader *Job // guarded by Service.mu
	// followers are the coalesced jobs waiting on the flight: a job is in
	// here until the flight resolves, it is promoted to leader, or it
	// cancels and detaches.
	followers []*Job // guarded by Service.mu
}

// NewService builds a service for one package. If opts.PolicyDir holds a
// policy pre-trained for the package, the newest one is installed
// immediately; otherwise the service starts policy-less (the from-scratch
// methods work, and a policy can still arrive via Pretrain, LoadPolicy, or
// a later registry drop picked up at plan time or by ReloadPolicies).
func NewService(pkg *Package, opts ServiceOptions) (*Service, error) {
	planner, err := NewPlanner(pkg)
	if err != nil {
		return nil, err
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("%w: Workers %d is negative; use 0 for the process default", ErrInvalidRequest, opts.Workers)
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("%w: QueueDepth %d is negative; use 0 for the default (4x workers)", ErrInvalidRequest, opts.QueueDepth)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	memoMAC, err := newMemoMAC()
	if err != nil {
		return nil, err
	}
	root, shutdown := context.WithCancel(context.Background())
	m := newServiceMetrics()
	s := &Service{
		planner:  planner,
		pkgFP:    rl.PackageFingerprint(pkg),
		cache:    newPlanCache[string](cacheBytes, func(r *Result) int64 { return entryBytes + resultBytes(r) }),
		memo:     newPlanCache[[16]byte](memoBytes, keyedRequest.bytes),
		memoMAC:  memoMAC,
		pool:     parallel.NewPool(opts.Workers, opts.QueueDepth),
		logger:   logger,
		m:        m,
		now:      time.Now,
		root:     root,
		shutdown: shutdown,
		inflight: make(map[string]*flight),
		live:     make(map[string]*Job),
		retired:  newPlanCache[string](retiredJobBytes, (*Job).bytes),
	}
	// Live quantities are read straight from the owning structures at
	// scrape time — there is no second copy to fall out of sync.
	m.reg.GaugeFunc("mcmpart_queue_depth", "Tasks waiting in the worker-pool queue right now.",
		func() float64 { return float64(s.pool.QueueLen()) })
	m.reg.GaugeFunc("mcmpart_queue_capacity", "Configured worker-pool queue bound; admission sheds beyond it.",
		func() float64 { return float64(s.pool.QueueCap()) })
	m.reg.GaugeFunc("mcmpart_workers", "Configured worker count.",
		func() float64 { return float64(s.pool.Workers()) })
	m.reg.GaugeFunc("mcmpart_workers_busy", "Workers executing a task right now.",
		func() float64 { return float64(s.pool.Busy()) })
	m.reg.GaugeFunc("mcmpart_cache_entries", "Plans currently held by the in-memory cache.",
		func() float64 { entries, _ := s.cache.snapshot(); return float64(entries) })
	stores := map[string]func() (bytes int64, evictions uint64){
		"cache": s.cache.reading, "memo": s.memo.reading, "jobs": s.retired.reading,
		"deployments": func() (int64, uint64) { return s.planner.snapshotPolicy().deployments.reading() },
		"training":    s.planner.training.reading,
	}
	for use, kit := range [...]string{kitNew: "new", kitReused: "reused"} {
		m.reg.CounterFunc("mcmpart_rl_plans_total", "RL-from-scratch plans by what they ran on: a training kit the plan built, or one an earlier plan of the graph left idle.",
			s.planner.rlPlans[use].Load, telemetry.Label{Name: "kit", Value: kit})
	}
	for store, read := range stores {
		label := telemetry.Label{Name: "store", Value: store}
		m.reg.GaugeFunc("mcmpart_retained_bytes", "Bytes a store keeps beyond the requests that filled it, counted from shapes.",
			func() float64 { bytes, _ := read(); return float64(bytes) }, label)
		m.reg.CounterFunc("mcmpart_evictions_total", "Entries a store evicted to make room, and values it did not keep because they alone exceed its bound.",
			func() uint64 { _, evictions := read(); return evictions }, label)
	}
	m.reg.GaugeFunc("mcmpart_draining", "1 while admission is stopped (BeginDrain/Drain/Close), else 0.",
		func() float64 {
			if s.draining() {
				return 1
			}
			return 0
		})
	if err := s.openStores(opts); err != nil {
		s.pool.Close()
		shutdown()
		return nil, err
	}
	return s, nil
}

// openStores opens the optional directory-backed parts: the disk cache
// tier and the policy registry (installing its newest matching policy).
func (s *Service) openStores(opts ServiceOptions) error {
	if opts.CacheDir != "" {
		disk, err := plancache.Open(opts.CacheDir, func(format string, args ...any) {
			s.logger.Warn(fmt.Sprintf(format, args...))
		})
		if err != nil {
			return err
		}
		// The disk *hit* counter stays service-owned (m.diskHits): a hit
		// means "served", which additionally requires the payload to decode.
		disk.Instrument(s.m.reg)
		s.disk = disk
	}
	if opts.PolicyDir != "" {
		reg, err := rl.OpenRegistry(opts.PolicyDir)
		if err != nil {
			return err
		}
		s.registry = reg
		return s.installLatestFromRegistry()
	}
	return nil
}

// Planner returns the underlying planner, e.g. to Pretrain through the
// service or to Assess a partition. The planner is concurrency-safe; a
// policy installed on it is picked up by subsequent plans (and, because
// the cache keys on the policy fingerprint, never by stale cache entries).
func (s *Service) Planner() *Planner { return s.planner }

// Package returns the package the service plans for.
func (s *Service) Package() *Package { return s.planner.Package() }

// installLatestFromRegistry installs the newest registry policy matching
// the package, if any. A registry with no matching policy is not an error.
func (s *Service) installLatestFromRegistry() error {
	policy, entry, found, err := s.registry.LoadLatest(s.planner.Package())
	if err != nil {
		return fmt.Errorf("mcmpart: loading policy %s from registry: %w", entry.Path, err)
	}
	if found {
		s.planner.installPolicy(policy, entry.Path)
	}
	return nil
}

// ReloadPolicies rescans the policy directory and installs the newest
// policy for the package (a no-op without a PolicyDir). Use it after
// dropping a new artifact into the directory of a running service.
func (s *Service) ReloadPolicies() error {
	if s.registry == nil {
		return nil
	}
	if err := s.registry.Rescan(); err != nil {
		return err
	}
	return s.installLatestFromRegistry()
}

// SavePolicyToRegistry writes the planner's installed policy into the
// policy directory as the next version for this package.
func (s *Service) SavePolicyToRegistry() error {
	if s.registry == nil {
		return fmt.Errorf("%w: service has no policy directory", ErrInvalidRequest)
	}
	policy := s.planner.snapshotPolicy().policy
	if policy == nil {
		return fmt.Errorf("%w: nothing to save; run Pretrain or LoadPolicy first", ErrPolicyRequired)
	}
	_, err := s.registry.Save(policy, s.planner.Package())
	return err
}

// Policies lists the installed policy and every registry artifact matching
// the service's package, oldest first, installed one marked. The installed
// mark uses the provenance the install recorded (no artifact is read from
// disk here); a policy installed outside the registry — e.g. a Pretrain
// through Planner() — has none, and a synthetic path-less entry represents
// it instead.
func (s *Service) Policies() []PolicyInfo { return s.policies(s.planner.snapshotPolicy()) }

// policies is Policies under a given reading of the installed policy, so
// that a response naming the installed fingerprint (GET /v1/policies) marks
// that same policy.
func (s *Service) policies(installed policySnapshot) []PolicyInfo {
	var out []PolicyInfo
	seenInstalled := false
	if s.registry != nil {
		for _, e := range s.registry.ForPackage(s.planner.Package()) {
			info := PolicyInfo{
				Path:               e.Path,
				PackageName:        e.PackageName,
				PackageFingerprint: e.PackageFingerprint,
				Seq:                e.Seq,
			}
			if installed.path != "" && e.Path == installed.path {
				info.Installed = true
				seenInstalled = true
			}
			out = append(out, info)
		}
	}
	if installed.policy != nil && !seenInstalled {
		out = append(out, PolicyInfo{
			PackageName:        s.planner.Package().Name,
			PackageFingerprint: s.pkgFP,
			Installed:          true,
		})
	}
	return out
}

// Stats returns a point-in-time operational snapshot: the facts that are
// not instruments, then one Fill from the registry GET /metrics serves.
//
// Snapshot coherence: Fill reads ServiceStats' fields in declaration
// order, so the job counters are read *before* the cache counters, and
// every admission increments its cache-tier counter before jobsSubmitted
// (see serviceMetrics), so CacheHits+CacheMisses >= JobsSubmitted holds in
// every snapshot — even mid-burst — and the two sides are equal once the
// service is quiescent.
func (s *Service) Stats() ServiceStats {
	installed := s.planner.snapshotPolicy()
	st := ServiceStats{
		Package:            s.planner.Package().Name,
		PackageFingerprint: s.pkgFP,
		PolicyInstalled:    installed.policy != nil,
		PolicyFingerprint:  installed.fp,
	}
	if s.registry != nil {
		st.RegistryPolicies = len(s.registry.ForPackage(s.planner.Package()))
	}
	s.m.reg.Fill(&st)
	return st
}

// Metrics returns the service's telemetry registry — the instruments
// behind Stats(), ready to serve as a Prometheus text exposition via
// telemetry.Handler (cmd/mcmpartd mounts it at GET /metrics).
func (s *Service) Metrics() *telemetry.Registry { return s.m.reg }

// Job returns a submitted job by ID. Terminal jobs stay addressable until
// evicted by the retention bound.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.live[id]; ok {
		return j, true
	}
	return s.retired.get(id)
}

// ensurePolicy takes the request's one reading of the installed policy —
// the policy its key names and its flight plans under, whatever is
// installed afterwards. It makes the deployed-policy methods servable: if
// none is installed but a registry is configured, the newest matching
// policy is installed now — the "automatic policy selection at plan time".
// The from-scratch methods never consult a policy and get the zero reading.
func (s *Service) ensurePolicy(method Method) (policySnapshot, error) {
	if !method.usesPolicy() {
		return policySnapshot{}, nil
	}
	installed := s.planner.snapshotPolicy()
	if installed.policy == nil {
		if err := s.ReloadPolicies(); err != nil {
			return installed, err
		}
		installed = s.planner.snapshotPolicy()
	}
	if installed.policy == nil {
		return installed, fmt.Errorf("%w: method %q needs Pretrain, LoadPolicy, or an artifact for this package in the policy directory", ErrPolicyRequired, method)
	}
	return installed, nil
}

// keyedRequest is what keying a request produced, less the policy reading:
// what the request memo keeps per body, and per graph structure with zero
// options. It holds no graph and no body.
type keyedRequest struct {
	opts    PlanOptions // normalized
	graphFP string
	pos     []int // canonical positions of the graph's node IDs; shared, read-only
}

// bytes is what the request memo counts for k: the entry, the struct, its
// fingerprint and its positions.
func (k keyedRequest) bytes() int64 {
	return entryBytes + int64(unsafe.Sizeof(k)) + int64(len(k.graphFP)) + int64(len(k.pos))*int64(unsafe.Sizeof(0))
}

// admission is one request on its way through Submit's stages.
type admission struct {
	keyedRequest
	graph  *Graph         // nil on the memo path, which never plans
	policy policySnapshot // what ensurePolicy read; key and flight carry it
	rid    string
	start  time.Time // when Submit began, for the warm-path latency
	key    string
}

// Submit validates and admits one plan request, returning the Job tracking
// it. Submission is fail-fast: a malformed request, a missing policy, or a
// full queue (ErrBusy) is reported now, not from inside the job. ctx covers
// admission only — the job itself runs under the service's lifecycle and
// stops via Job.Cancel or Close.
//
// Submit is a pipeline of stages: normalize the request, key it, look the
// key up (memory tier, then disk), and admit the miss — coalesced onto the
// key's in-flight plan if there is one, enqueued as a new flight's leader
// otherwise; a pool worker then runs the flight. A lookup hit returns an
// already-terminal job carrying the cached result (Status().Cached)
// without consuming a worker. A coalesced job (Status().Coalesced) waits
// for the leader's plan and receives it without invoking the planner.
// Cancelling a coalesced job detaches it without disturbing the leader;
// cancelling the leader promotes a waiting follower to re-plan, so
// followers never lose their result to someone else's cancellation.
//
// Whatever is kept for a key — cache entries, the flight's outcome — is in
// canonical node order; the job maps it to the submitted graph's own node
// IDs (Job.finish), so a request for the same model in another insertion
// order gets a partition that fits its graph. None of it is ever handed
// out or written again: the jobs of a key share it, and Job.Result makes
// the one deep copy a caller receives.
func (s *Service) Submit(ctx context.Context, req PlanRequest) (*Job, error) {
	job, _, err := s.submit(ctx, req)
	return job, err
}

// submit is Submit, also returning what keying the request produced — what
// the HTTP front end remembers for the request's body once it is a job.
func (s *Service) submit(ctx context.Context, req PlanRequest) (*Job, keyedRequest, error) {
	a := admission{start: s.now(), rid: RequestIDFrom(ctx)}
	if err := s.normalize(ctx, req, &a); err != nil {
		return nil, a.keyedRequest, err
	}
	s.keyRequest(&a)
	res, fromDisk, _ := s.lookup(a.key)
	job, err := s.admit(&a, res, fromDisk)
	return job, a.keyedRequest, err
}

// submitKnown serves a request body the memo holds (tag is its requestTag)
// with the back half of Submit on the memo's entry — ctx, the policy
// reading, the key, the lookup — and no decode, Validate or fingerprint.
// It serves only a lookup hit, and so never plans: for every other outcome
// (an unknown body, an ended ctx, a policy error, a miss, a refused
// admission) ok is false, and the caller decodes and Submits the body as
// if it were new.
func (s *Service) submitKnown(ctx context.Context, tag [16]byte) (job *Job, graphFP string, ok bool) {
	a := admission{start: s.now(), rid: RequestIDFrom(ctx)}
	if a.keyedRequest, ok = s.memo.get(tag); !ok || ctx.Err() != nil {
		return nil, "", false
	}
	var err error
	if a.policy, err = s.ensurePolicy(a.opts.Method); err != nil {
		return nil, "", false
	}
	a.key = planCacheKey(a.graphFP, s.pkgFP, a.policy.fp, a.opts)
	res, fromDisk, ok := s.lookup(a.key)
	if !ok {
		return nil, "", false
	}
	if job, err = s.admit(&a, res, fromDisk); err != nil {
		return nil, "", false
	}
	s.m.memoHits.Inc() // after the tier counter admit moved
	return job, a.graphFP, true
}

// memoNonce is the one nonce the memo's AEAD is used with. Reusing a GCM
// nonce under one key gives the key away to whoever sees what was sealed;
// requestTag seals no plaintext, and its tags never leave the process.
var memoNonce [12]byte

// newMemoMAC builds the AEAD behind requestTag: AES-128-GCM under a key
// drawn from crypto/rand, so the key is the Service's own and unknowable
// to whoever sends the bodies.
func newMemoMAC() (cipher.AEAD, error) {
	var key [16]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// requestTag is the request memo's key for a body: its 128-bit AES-GMAC
// tag under the Service's key — GCM sealing an empty plaintext with the
// body as additional data (NIST SP 800-38D). Under a secret key two
// distinct bodies share a tag with probability at most (⌈len/16⌉+1)/2¹²⁸
// (about 2⁻¹⁰⁶ at maxRequestBytes). The tag keys the memo and nothing
// else: no cache key, plan or response is computed from it (DESIGN.md §8,
// "The Submit pipeline"). It costs one pass over the body.
func (s *Service) requestTag(body []byte) (tag [16]byte) {
	s.memoMAC.Seal(tag[:0], memoNonce[:], nil, body)
	return tag
}

// normalize validates the request and resolves every default, including
// the installed policy for the deployed-policy methods.
func (s *Service) normalize(ctx context.Context, req PlanRequest, a *admission) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	opts, err := normalizeRequest(req.Graph, req.Options)
	if err != nil {
		return err
	}
	a.graph, a.opts = req.Graph, opts
	a.policy, err = s.ensurePolicy(opts.Method)
	return err
}

// keyRequest canonicalizes the graph — its fingerprint and the node
// positions results for its key are stored by — and keys the request. A
// structure the request memo holds under its structureTag is not
// canonicalized again: the graph is seeded with what the memo keeps
// (Graph.SeedCanonical), which is what canonicalizing it would compute,
// and every later reader of its fingerprint — the planner's kit stores
// too — reads that. Otherwise the graph is canonicalized and the memo
// remembers the structure.
func (s *Service) keyRequest(a *admission) {
	tag := s.structureTag(a.graph)
	known, ok := s.memo.get(tag)
	if ok {
		a.graph.SeedCanonical(known.graphFP, known.pos)
		s.m.structureHits.Inc()
	}
	a.graphFP, a.pos = a.graph.Fingerprint(), graph.CanonicalPositions(a.graph)
	if !ok {
		s.memo.put(tag, keyedRequest{graphFP: a.graphFP, pos: a.pos})
	}
	a.key = planCacheKey(a.graphFP, s.pkgFP, a.policy.fp, a.opts)
}

// structureTag is the request memo's key for a graph's raw structure: the
// requestTag of a 0x00 byte followed by its StructureDigest. The memo keys
// bodies only once they decoded, and a JSON document never starts with
// 0x00, so a structure and a body share a tag only as two bodies do (the
// bound at requestTag). The entry's options are zero: only its fingerprint
// and positions are read.
func (s *Service) structureTag(g *Graph) [16]byte {
	var msg [1 + 32]byte
	digest := g.StructureDigest()
	copy(msg[1:], digest[:])
	return s.requestTag(msg[:])
}

// lookup consults the memory tier, then the disk tier (it does IO, so this
// runs outside s.mu). A verified disk entry is promoted into the memory
// cache; an envelope-valid entry whose payload does not decode is
// quarantined like any other corruption. No counter moves here — the
// caller counts the tier at admission, so a request rejected after a
// successful read stays off the books.
func (s *Service) lookup(key string) (res *Result, fromDisk, ok bool) {
	if hit, ok := s.cache.get(key); ok {
		return hit, false, true
	}
	if s.disk == nil {
		return nil, false, false
	}
	payload, found := s.disk.Get(key)
	if !found {
		return nil, false, false
	}
	var w ResultWire
	if err := json.Unmarshal(payload, &w); err != nil {
		s.disk.Quarantine(key, fmt.Errorf("undecodable payload: %w", err))
		return nil, false, false
	}
	res = w.Result()
	s.cache.put(key, res)
	return res, true, true
}

// store writes a completed plan through both cache tiers (disk failures
// are logged and counted by the store).
func (s *Service) store(key string, res *Result) {
	s.cache.put(key, res)
	if s.disk == nil {
		return
	}
	if payload, err := json.Marshal(resultToWire(res)); err == nil {
		_ = s.disk.Put(key, payload)
	}
}

// draining reports that admission is stopped — what Stats, /healthz, and
// the mcmpart_draining gauge show. (admit reads the same field under the
// lock it already holds.)
func (s *Service) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// admit makes a request a job, in one critical section under s.mu. hit is
// the lookup's result (nil on a miss) and fromDisk the tier it came from.
// Admission is refused once stopped. A lookup hit is registered as served
// by its tier. A miss coalesces onto the key's in-flight plan if there is
// one (single-flight); otherwise it looks the memory cache up again — a
// flight that stored the key's plan and retired since the lookup
// (runFlight stores before it retires, and retires under s.mu) has left
// the plan there — and is admitted as the hit it now is; otherwise it
// leads a new flight handed to the pool. The leader is registered only
// once the pool has accepted the flight, so a shed request (ErrBusy)
// leaves nothing behind — no job, no ID, no gauge movement — and the
// worker that picks the flight up cannot outrun the registration:
// runFlight takes s.mu, held here, first. A hit's job is finished outside
// the lock, already terminal, without consuming a worker.
func (s *Service) admit(a *admission, hit *Result, fromDisk bool) (*Job, error) {
	job, err := func() (*Job, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.stopped {
			return nil, ErrServiceClosed
		}
		tier := tierMemory
		if hit != nil && fromDisk {
			tier = tierDisk
		}
		var fl *flight
		if hit == nil {
			var ok bool
			if fl, ok = s.inflight[a.key]; ok {
				tier = tierCoalesced
			} else if hit, ok = s.cache.get(a.key); !ok {
				fl = &flight{key: a.key, graph: a.graph, opts: a.opts, policy: a.policy}
				fl.opts.Progress = nil
				if err := s.pool.TrySubmit(func() { s.runFlight(fl) }); err != nil {
					if errors.Is(err, parallel.ErrPoolFull) {
						s.m.jobsShed.Inc()
						return nil, ErrBusy
					}
					return nil, ErrServiceClosed
				}
				s.inflight[a.key] = fl
				s.m.jobsQueued.Inc()
				tier = tierPlanner
			}
		}
		job := s.registerLocked(a, tier)
		switch tier {
		case tierCoalesced:
			fl.followers = append(fl.followers, job)
			context.AfterFunc(job.ctx, func() { s.detach(fl, job) })
		case tierPlanner:
			fl.leader = job
		}
		return job, nil
	}()
	if hit != nil && err == nil {
		s.finishJob(job, JobDone, hit, nil)
		s.m.planWarm.Observe(s.now().Sub(a.start).Seconds())
	}
	return job, err
}

// registerLocked creates the job for an admitted request, enters it in the
// job table and counts it: its tier outcome first, then jobsSubmitted. The
// tier counters partition admissions — a disk hit, a coalesced job and a
// flight's leader are memory misses. Every registered job holds one jobsWG
// count until its terminal transition (finishJob); admit registers only
// once admission is certain, so neither ever needs undoing.
func (s *Service) registerLocked(a *admission, tier string) *Job {
	s.seq++
	ctx, cancel := context.WithCancel(s.root)
	job := &Job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		requestID: a.rid,
		progress:  a.opts.Progress,
		pos:       a.pos,
		tier:      tier,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     JobQueued,
	}
	s.jobsWG.Add(1)
	s.live[job.id] = job
	switch tier {
	case tierMemory:
		s.m.memHits.Inc()
	case tierDisk:
		s.m.memMisses.Inc()
		s.m.diskHits.Inc()
	case tierCoalesced:
		s.m.memMisses.Inc()
		s.m.plansCoalesced.Inc()
	default:
		s.m.memMisses.Inc()
	}
	s.m.jobsSubmitted.Inc()
	return job
}

// detach runs when a coalesced job's context ends. If the job is still
// waiting on the flight, it was cancelled: it leaves the flight — which,
// like its leader, is untouched — and finishes cancelled. If it is no
// longer in the list it was resolved or promoted, and this is the echo of
// its own terminal transition.
func (s *Service) detach(fl *flight, job *Job) {
	s.mu.Lock()
	i := slices.Index(fl.followers, job)
	if i >= 0 {
		fl.followers = slices.Delete(fl.followers, i, i+1)
	}
	s.mu.Unlock()
	if i >= 0 {
		s.finishJob(job, JobCancelled, nil, job.ctx.Err())
	}
}

// runFlight executes one flight on a pool worker. The loop is the leader
// hand-off protocol: if the current leader's plan is cancelled, it keeps
// its best-so-far result and a waiting follower is promoted to re-plan in
// this same worker slot — a follower never loses its result because some
// other caller gave up. A successful plan resolves the whole flight; a
// plan error is deterministic for the key (plans are a pure function of
// it), so it resolves the flight too.
func (s *Service) runFlight(fl *flight) {
	s.mu.Lock() // waits out the admission that enqueued the flight
	job := fl.leader
	s.mu.Unlock()
	s.m.jobsQueued.Dec()
	pos := graph.CanonicalPositions(fl.graph)
	for job != nil {
		res, err := s.planOnce(fl, job)
		canonicalize(res, pos)

		switch {
		case err == nil:
			s.store(fl.key, res)
			s.resolveFlight(fl, job, JobDone, res, nil)
			return
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Best-so-far semantics: a cancelled plan may still carry a
			// result — it belongs to the cancelled leader only.
			s.finishJob(job, JobCancelled, res, err)
			job = s.promoteNext(fl)
		default:
			s.resolveFlight(fl, job, JobFailed, nil, err)
			return
		}
	}
}

// planOnce runs one plan attempt for the flight's current leader,
// containing panics (ErrPlanPanic) and injected evaluator faults. Progress
// events fan out to the leader and every currently attached follower.
func (s *Service) planOnce(fl *flight, job *Job) (res *Result, err error) {
	if job.ctx.Err() != nil || !job.markRunning() {
		return nil, context.Canceled
	}
	s.m.jobsRunning.Inc()
	s.m.plansExecuted.Inc()
	start := s.now()
	defer func() {
		s.m.planCold.Observe(s.now().Sub(start).Seconds())
		s.m.jobsRunning.Dec()
	}()

	opts := fl.opts
	opts.Progress = func(ev ProgressEvent) {
		job.recordProgress(ev)
		s.mu.Lock()
		followers := slices.Clone(fl.followers)
		s.mu.Unlock()
		for _, f := range followers {
			f.recordProgress(ev)
		}
	}

	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrPlanPanic, r)
		}
	}()
	if ferr := faultinject.Check(faultinject.PointPlanEvaluate); ferr != nil {
		return nil, fmt.Errorf("mcmpart: injected evaluator fault: %w", ferr)
	}
	res, reused, err := s.planner.plan(job.ctx, fl.graph, opts, fl.policy)
	if reused {
		s.m.deployReuses.Inc()
		job.deployed.Store(true)
	}
	return res, err
}

// promoteNext takes the first still-waiting follower off the flight to
// lead it after the leader cancelled. With no followers left it returns nil
// and retires the flight, so a later identical request plans fresh.
func (s *Service) promoteNext(fl *flight) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(fl.followers) == 0 {
		delete(s.inflight, fl.key)
		return nil
	}
	next := fl.followers[0]
	fl.followers = fl.followers[1:]
	return next
}

// resolveFlight retires the flight and finishes its leader and every
// attached follower with the plan's outcome.
func (s *Service) resolveFlight(fl *flight, leader *Job, state JobState, res *Result, err error) {
	s.mu.Lock()
	delete(s.inflight, fl.key)
	waiting := append([]*Job{leader}, fl.followers...)
	fl.followers = nil
	s.mu.Unlock()
	for _, job := range waiting {
		s.finishJob(job, state, res, err)
	}
}

// finishJob is the terminal transition, and the single point where a
// result is handed to a job: Job.finish maps it from canonical order to the
// job's own node IDs without writing to it, and Job.Result copies on the
// way out, so no caller can corrupt another's result. It updates the
// terminal counters and moves the job from the live jobs to the retired
// ones, and only then fires the job's Done() and releases its drain count —
// whoever Done() wakes sees Stats() that already include this job. Safe to call twice (only the
// transition that wins counts).
func (s *Service) finishJob(job *Job, state JobState, res *Result, err error) {
	if !job.finish(state, res, err) {
		return
	}
	s.m.jobsEnded[state].Inc()
	s.mu.Lock()
	s.retired.put(job.id, job)
	delete(s.live, job.id)
	s.mu.Unlock()
	job.release()
	s.jobsWG.Done()
}

// awaitJob waits with give-up-and-stop semantics: when ctx ends before the
// job does, the job is cancelled and its best-so-far result is returned
// together with ctx's error — the contract Service.Plan, PlanBatch, and
// POST /v1/plan share with Planner.Plan.
func awaitJob(ctx context.Context, job *Job) (*Result, error) {
	select {
	case <-job.Done():
		return job.Result()
	case <-ctx.Done():
		job.Cancel()
		<-job.Done()
		res, _ := job.Result()
		return res, ctx.Err()
	}
}

// Plan is the synchronous, cache-aware entry point: Submit + wait. When ctx
// is cancelled or expires mid-plan, the job is cancelled and Plan returns
// its best-so-far result together with ctx's error — the same contract as
// Planner.Plan.
func (s *Service) Plan(ctx context.Context, g *Graph, opts PlanOptions) (*Result, error) {
	job, err := s.Submit(ctx, PlanRequest{Graph: g, Options: opts})
	if err != nil {
		return nil, err
	}
	return awaitJob(ctx, job)
}

// PlanBatch submits every request and waits for all of them. The results
// slice is index-aligned with reqs; entries whose plan failed are nil. The
// returned error is the lowest-index failure (admission or plan), so the
// error a caller sees is deterministic. Cancelling ctx cancels every
// outstanding job immediately — running ones keep their best-so-far
// results, queued ones finish cancelled without consuming a worker.
func (s *Service) PlanBatch(ctx context.Context, reqs []PlanRequest) ([]*Result, error) {
	jobs := make([]*Job, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		jobs[i], errs[i] = s.Submit(ctx, req)
	}
	// Fan the batch cancellation out to every job as soon as ctx is done.
	// Waiting for the sequential loop below to reach each index would let
	// queued jobs later in the batch run to completion on workers the
	// caller has already given up on.
	stop := context.AfterFunc(ctx, func() {
		for _, job := range jobs {
			if job != nil {
				job.Cancel()
			}
		}
	})
	defer stop()
	results := make([]*Result, len(reqs))
	for i, job := range jobs {
		if job != nil {
			results[i], errs[i] = awaitJob(ctx, job)
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// BeginDrain stops admission — Submit, Plan, and PlanBatch return
// ErrServiceClosed (503 + Retry-After over HTTP) — without disturbing
// queued or running jobs. It is the first step of graceful shutdown; pair
// with Drain, or poll Stats until JobsQueued and JobsRunning reach zero.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

// Drain gracefully shuts the service down: admission stops immediately,
// then previously admitted jobs run to completion. If ctx expires first,
// the remaining jobs are cancelled (keeping their best-so-far results,
// like Close) and ctx's error is returned. Either way the workers are
// released and the disk cache tier is flushed before Drain returns. Drain
// and Close are both idempotent and safe to combine.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	drained := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.shutdown()
		<-drained
	}
	s.release()
	return err
}

// Close stops admission, cancels every queued and running job (their
// best-so-far results are kept, mirroring plan cancellation), waits for the
// workers to drain, flushes the disk cache tier, and returns. Close is
// idempotent. For graceful shutdown — let in-flight work finish first —
// use Drain.
func (s *Service) Close() error {
	s.BeginDrain()
	s.shutdown()
	s.release()
	return nil
}

// release waits out and frees the workers, then flushes the disk tier.
// Both steps are idempotent, so Drain and Close need no once-guard.
func (s *Service) release() {
	s.pool.Close()
	if s.disk != nil {
		_ = s.disk.Flush()
	}
}
