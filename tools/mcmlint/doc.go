// Command mcmlint is the repo's contract-enforcing static-analysis suite:
// a multi-analyzer framework over the go-vet vettool protocol that turns the
// hand-maintained invariants of the planner/serving stack into
// machine-checked diagnostics. Where the runtime test suite catches a
// violated contract after it ships, mcmlint catches it at vet time.
//
// # Analyzers
//
//	det          Determinism (PR 1/PR 7 contract). In packages annotated
//	             //mcmlint:deterministic, flags time.Now, global math/rand
//	             draws, and map-range loops that append into an output slice
//	             without a later sort — the three patterns that have
//	             historically broken byte-reproducibility of plans, sweeps,
//	             and fingerprints.
//
//	deepcopy     Cache/retention isolation (PR 4 bit-identity contract). For
//	             types annotated //mcmlint:deepcopy <helper>, any value of
//	             the helper's result type that crosses the type's storage
//	             boundary (returned from a method, assigned into a field or
//	             map slot, or placed in a composite literal) must pass
//	             through <helper> (or be nil / a fresh literal / a
//	             delegation to a sibling method). Cached plans stay
//	             immutable no matter what callers do with what they were
//	             handed.
//
//	ctxloop      Cancellation at sample boundaries (PR 3 contract). In any
//	             function that takes a context.Context, a
//	             condition-controlled for loop that never consults the
//	             context — no ctx.Err()/ctx.Done() and no callee receiving
//	             ctx — cannot stop at a sample boundary, so a cancelled Plan
//	             would run to budget exhaustion. Loops with literal trip
//	             counts and range loops (bounded by data) are exempt.
//
//	hotalloc     Zero-alloc hot loops (PR 1 contract, complementing the
//	             AllocsPerRun regression tests). In packages annotated
//	             //mcmlint:hotpath, flags per-iteration allocation patterns
//	             inside loops: append into a slice declared without
//	             capacity, fmt formatting calls (interface boxing +
//	             parsing) outside cold error paths, closures capturing
//	             outer variables (heap escape per iteration), and explicit
//	             conversions to any.
//
//	guarded      Mutex discipline, flow-sensitive (Planner/Service
//	             concurrency contract). Struct fields annotated
//	             `// guarded by <mu>` (sibling field) or
//	             `// guarded by <Type>.<mu>` (a mutex owned by another
//	             type, e.g. an entry guarded by its table's lock) must only
//	             be touched at points where every execution path holds the
//	             guard: an early Unlock followed by a read, or a Lock taken
//	             on only one branch, is reported even though the function
//	             locks the mutex "somewhere". *Locked-suffix functions are
//	             exempt inside (the caller holds the lock) but their call
//	             sites must hold a guard of the receiver's type; values
//	             still under construction are exempt; goroutine bodies
//	             start with nothing held.
//
//	lockorder    Deadlock shape (concurrency contract). Builds the unit's
//	             lock-acquisition graph — an edge A → B wherever a mutex of
//	             class B (named type + field) is acquired while a class-A
//	             mutex is held on every path — through direct Lock calls,
//	             one-level call summaries, and an approximation for
//	             imported mutex-bearing receivers. Cycles are reported with
//	             every hop's acquisition site named; re-locking the exact
//	             expression already held is an immediate self-deadlock
//	             report. *Locked methods are analyzed with their receiver's
//	             guard mutexes seeded as held.
//
//	goleak       Goroutine lifecycle (DESIGN.md §10 drain contract). Every
//	             go statement must be tied to a shutdown signal: the
//	             spawned body (function literal or same-unit declaration)
//	             observes a context (ctx.Done/ctx.Err), a channel receive
//	             or range, or a WaitGroup join — or, for callees the
//	             analyzer cannot see into, the spawn passes a context,
//	             channel, or *sync.WaitGroup argument. Anything else needs
//	             a reasoned //mcmlint:ignore goleak.
//
//	errcontract  Error routing (HTTP boundary contract). In packages
//	             annotated //mcmlint:errcontract, errors.New may appear
//	             only in package-level var declarations (sentinels), and
//	             fmt.Errorf with a constant format must carry a %w verb —
//	             otherwise the error falls out of the errors.Is sentinel
//	             mapping (ErrBusy → 429, ErrServiceClosed → 503,
//	             ErrPolicyRequired → 409, ErrInvalidRequest → 400) and a
//	             typed failure ships as a generic one. Typed errors pass
//	             untouched.
//
// # The flow engine
//
// guarded and lockorder share a small intraprocedural dataflow engine
// (cfg.go, dataflow.go): basic blocks built from each function body —
// branches, loops, switch/select, goto/labels, defer, and no-return calls
// (panic, os.Exit, Fatal-family) all modeled — and a forward must-analysis
// whose join is set intersection, run to fixpoint with a visit budget.
// "Held" facts track the exact mutex expression (s.mu), its class
// (Service.mu), and their association; deferred Unlocks keep the lock held
// to function exit; function literals are analyzed as separate contexts.
// Call effects are one-level summaries: a callee that locks on every
// return path transfers that acquisition to its call sites (with the
// receiver substituted), a callee that may unlock kills the fact — and
// summaries are never composed through a second call level, so the
// approximation direction is fixed (missed facts cost precision, never
// soundness of the must-hold claim).
//
// # Invocation
//
// mcmlint runs only under go vet, as CI runs it:
//
//	go build -o /tmp/mcmlint ./tools/mcmlint
//	go vet -vettool=/tmp/mcmlint ./...
//
// It implements the cmd/go vettool contract: -V=full prints a stable
// identity line (cmd/go caches results keyed on it; bump lintVersion when
// rules change), -flags reports no flags, and a single *.cfg argument runs
// one package build unit described by the JSON config. All analyzers always
// run. Findings go to stderr as file:line:col diagnostics tagged
// [mcmlint:<analyzer>]; exit status 2 signals findings, matching vet
// convention, 0 a clean run, 1 an operational error.
//
// # Escapes
//
// A finding is suppressed by an ignore directive on the flagged line or the
// line above it:
//
//	//mcmlint:ignore <analyzer> <reason>
//
// The reason is mandatory: an ignore without one is itself a diagnostic, as
// is an ignore naming an unknown analyzer or an unknown //mcmlint:
// directive. Test files (_test.go) are exempt from all analyzers: tests may
// time themselves, exercise nondeterminism, and reach into guarded state on
// purpose.
//
// It is stdlib-only (no golang.org/x/tools dependency). Type information
// comes from the export data cmd/go hands vet tools (fast); when that is
// unavailable — the golden fixtures, or a toolchain mismatch — it falls
// back to best-effort source-importer type-checking, and any residual gaps
// only cost the type-dependent rules their findings (never false positives).
package main
