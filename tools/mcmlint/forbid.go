package main

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// A callRule forbids one family of package-level calls in packages that
// carry a directive. Three of the suite's contracts are exactly this shape
// — det's clock and global RNG, errcontract's unroutable errors, hotalloc's
// fmt in a loop — so they are rows of one table checked by one walk of the
// unit. A hit is reported by the analyzer its row names, so diagnostics
// tags and //mcmlint:ignore <analyzer> mean what they always did.
type callRule struct {
	analyzer  string // who reports the hit
	directive string // package marker that switches the rule on
	pkg       string // import path of the forbidden callee's package
	// fn picks the forbidden functions of pkg by name.
	fn func(name string) bool
	// allowed lets a matching call through by where it stands or what it
	// is passed (nil: never). stack is the call's ancestors, file first.
	allowed func(call *ast.CallExpr, stack []ast.Node) bool
	// msg may mention {pkg}, the package's local name in the file, and
	// {fn}, the function called.
	msg string
}

func named(names ...string) func(string) bool {
	return func(name string) bool {
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}
}

var callRules = []callRule{
	// Timestamps are threaded in by the caller: cmd/ layers stamp results,
	// the planning core never looks at a clock.
	{analyzer: "det", directive: "deterministic", pkg: "time", fn: named("Now"),
		msg: "time.Now in a deterministic package: thread timestamps in from the caller"},
	// Every package-level math/rand function draws from the process-global
	// source, which is seeded outside the scenario seed discipline —
	// constructors and conversions to the package's types aside.
	{analyzer: "det", directive: "deterministic", pkg: "math/rand",
		fn: func(name string) bool {
			return !named("New", "NewSource", "NewZipf", "Rand", "Source", "Source64", "Zipf")(name)
		},
		msg: "global math/rand state ({pkg}.{fn}): derive a *rand.Rand from the scenario seed with rand.New(rand.NewSource(seed))"},
	// The HTTP boundary routes on sentinels (writeServiceError, APIError.Is):
	// an error built with a bare errors.New, or wrapped with %v instead of
	// %w, falls out of that mapping and a typed failure ships as a generic
	// one. Package-level var declarations are where sentinels are made; a
	// non-constant format has nothing static to check; typed errors route by
	// construction.
	{analyzer: "errcontract", directive: "errcontract", pkg: "errors", fn: named("New"), allowed: inPackageVar,
		msg: "errors.New outside a package-level sentinel declaration: errors.Is cannot route it; declare a sentinel var and wrap it with fmt.Errorf(\"%w: ...\", ErrX)"},
	{analyzer: "errcontract", directive: "errcontract", pkg: "fmt", fn: named("Errorf"), allowed: wrapsOrDynamic,
		msg: "fmt.Errorf without %w at an error-contract boundary: errors.Is cannot route the result; wrap a sentinel or the underlying error with %w"},
	// fmt boxes its arguments and re-parses the verbs on every call; on a
	// return, defer or panic path it runs once and is let through.
	{analyzer: "hotalloc", directive: "hotpath", pkg: "fmt", fn: func(string) bool { return true },
		allowed: func(_ *ast.CallExpr, stack []ast.Node) bool {
			depth, cold := ancestorContext(stack)
			return depth == 0 || cold
		},
		msg: "fmt.{fn} inside a hot loop: arguments box to interfaces and the format is re-parsed per iteration; move formatting to the cold path"},
}

// callHit is one forbidden call, not yet attributed to a Pass.
type callHit struct {
	pos token.Pos
	msg string
}

// reportForbiddenCalls reports the calling analyzer's rows of callRules.
// The walk that finds them runs once per unit, for every row at once.
func (p *Pass) reportForbiddenCalls() {
	u := p.unit
	if u.callHits == nil {
		u.callHits = forbiddenCalls(u)
	}
	for _, h := range u.callHits[p.Analyzer.Name] {
		p.Reportf(h.pos, "%s", h.msg)
	}
}

// forbiddenCalls walks every file of the unit once, matching each
// pkg.Fn(...) call against the rules the unit's directives switch on.
func forbiddenCalls(u *unit) map[string][]callHit {
	hits := map[string][]callHit{}
	for _, file := range u.files {
		// local[i] is the name rule i's package goes by in this file.
		local := make([]string, len(callRules))
		live := false
		for i, r := range callRules {
			if u.directives[r.directive] {
				local[i] = importName(file, r.pkg)
				live = live || local[i] != ""
			}
		}
		if !live {
			continue
		}
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok {
						for i, r := range callRules {
							if id.Name != local[i] || !r.fn(sel.Sel.Name) || (r.allowed != nil && r.allowed(call, stack)) {
								continue
							}
							msg := strings.NewReplacer("{pkg}", id.Name, "{fn}", sel.Sel.Name).Replace(r.msg)
							hits[r.analyzer] = append(hits[r.analyzer], callHit{call.Pos(), msg})
						}
					}
				}
			}
			stack = append(stack, n)
			return true
		})
	}
	return hits
}

// inPackageVar reports whether the call stands in a package-level var
// declaration.
func inPackageVar(_ *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	gd, ok := stack[1].(*ast.GenDecl)
	return ok && gd.Tok == token.VAR
}

// wrapsOrDynamic reports whether an Errorf call has a non-constant format
// or a constant one with a %w verb.
func wrapsOrDynamic(call *ast.CallExpr, _ []ast.Node) bool {
	if len(call.Args) == 0 {
		return true
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return true
	}
	format, err := strconv.Unquote(lit.Value)
	return err != nil || hasWrapVerb(format)
}

// hasWrapVerb reports whether the format string contains a %w verb
// (ignoring %% escapes and skipping flags/width/precision).
func hasWrapVerb(format string) bool {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Skip flags, width, precision, and argument indexes up to the verb.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.[]*", rune(format[i])) {
			i++
		}
		if i < len(format) && format[i] == 'w' {
			return true
		}
	}
	return false
}

// errcontractAnalyzer is nothing but its two rows of callRules: in packages
// annotated //mcmlint:errcontract every constructed error must stay
// reachable by errors.Is.
var errcontractAnalyzer = &Analyzer{Name: "errcontract", Run: (*Pass).reportForbiddenCalls}

// importName returns the local name under which path is imported in file
// ("" when absent, the last path element when unaliased).
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}
