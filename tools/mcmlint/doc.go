// Command mcmlint is the repo's contract-enforcing vet tool: the invariants
// of the planner/serving stack that no test or race run is guaranteed to
// reach, checked at every site on every commit. An analyzer is here only
// if a mutation of product code showed a defect that `go vet`, `go test`
// and `go test -race` all miss and it catches, or while bench/ names it in
// an ignore directive (CHANGES.md has the mutation matrices; DESIGN.md
// §12–§13 describe each contract).
//
// # Analyzers
//
//	det          In //mcmlint:deterministic packages: no time.Now, no draw
//	             from the global math/rand source (rows of callRules), and
//	             no appending into an output slice while ranging over a map
//	             unless the slice is sorted later in the same block.
//	errcontract  In //mcmlint:errcontract packages: errors.New only in
//	             package-level var declarations, fmt.Errorf with a constant
//	             format only with %w — or errors.Is cannot route the result
//	             to its HTTP status (rows of callRules).
//	hotalloc     In //mcmlint:hotpath packages, inside loops: no fmt call
//	             off the cold path (a row of callRules), no append into a
//	             slice declared without capacity, no closure capturing
//	             enclosing variables, no explicit conversion to an
//	             interface.
//	ctxloop      In a function that takes a context.Context, a
//	             condition-controlled for loop must mention the context, or
//	             a cancelled plan runs to budget exhaustion.
//	goleak       Every go statement is tied to a shutdown signal: a context,
//	             a channel receive, or a WaitGroup.
//
// det, errcontract and hotalloc's fmt rule are one traversal over one rule
// table (forbid.go). Mutex discipline is not here: a `// guarded by`
// comment is documentation, and the concurrent test that drives the field
// under go test -race is the check (DESIGN.md §12).
//
// # Invocation
//
// mcmlint runs only under go vet, as CI runs it:
//
//	go build -o /tmp/mcmlint ./tools/mcmlint
//	go vet -vettool=/tmp/mcmlint ./...
//
// It implements the cmd/go vettool contract by hand (stdlib only): -V=full
// prints the identity line cmd/go keys its vet cache on (bump lintVersion
// when a rule changes), -flags reports none, and a single *.cfg argument
// runs one package build unit, type-checked against the export data cmd/go
// provides. All analyzers always run; where type information is missing
// they stay silent rather than guess. Findings go to stderr as
// file:line:col diagnostics tagged [mcmlint:<analyzer>]; exit status 2
// signals findings, 0 a clean run, 1 an operational error. Test files are
// exempt from every analyzer.
//
// # Escapes
//
// A finding is suppressed by a directive on the flagged line or the line
// above it:
//
//	//mcmlint:ignore <analyzer> <reason>
//
// The reason is mandatory: an ignore without one is itself a diagnostic, as
// is an ignore naming an unknown analyzer or an unknown //mcmlint:
// directive, and those cannot be suppressed.
package main
