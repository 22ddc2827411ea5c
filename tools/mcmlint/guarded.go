package main

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// guardedAnalyzer enforces the mutex discipline the Planner/Service
// concurrency contract rests on — flow-sensitively. A struct field
// annotated with a trailing (or doc) comment
//
//	jobs map[string]*Job // guarded by mu
//
// must only be read or written while that mutex is held on every path
// reaching the access. The analysis runs the CFG + must-hold-lock dataflow
// (see cfg.go/dataflow.go): Lock/RLock acquire, Unlock/RUnlock
// release, `defer mu.Unlock()` keeps the lock held to function exit, and
// branches meet by intersection — so an early unlock followed by a field
// read, or a lock taken on only one branch, is caught where the
// function-scope syntactic check of mcmlint v2 could not see it.
//
// Two guard forms are recognized:
//
//	n int            // guarded by mu          (sibling field of the struct)
//	leader *Job      // guarded by Service.mu  (another type's mutex)
//
// The sibling form is satisfied by holding that exact mutex expression
// (e.g. s.mu for an access through s) or any mutex of the same class
// (Type.field); the cross-type form requires the named class to be held.
//
// Helper calls are bridged by one-level summaries: calling a function
// that locks on every return path adds its facts at the call site, and
// calling one that may unlock drops them. Functions whose name ends in
// "Locked" assert the caller already holds the lock: their bodies are
// exempt, but every call site must hold one of the receiver type's guard
// mutexes.
//
// Escapes: a function that itself constructs the value (x := &T{…} /
// new(T)) may initialize fields before the value is shared, and
// //mcmlint:ignore guarded <reason> covers everything else.
var guardedAnalyzer = &Analyzer{
	Name: "guarded",
	Run:  runGuarded,
}

var guardedByRE = regexp.MustCompile(`(?i)\bguarded by ([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)\b`)

// guardSpec is one parsed `guarded by` annotation.
type guardSpec struct {
	mu    string // mutex field name
	owner string // declaring type of the mutex for the dotted form; "" = sibling
}

// class renders the guard as a lock-class fact body ("Service.mu").
func (g guardSpec) class(siblingType string) string {
	if g.owner != "" {
		return g.owner + "." + g.mu
	}
	return siblingType + "." + g.mu
}

func (g guardSpec) String() string {
	if g.owner != "" {
		return g.owner + "." + g.mu
	}
	return g.mu
}

func runGuarded(pass *Pass) {
	if pass.Info == nil {
		return
	}
	guards := guardedFields(pass)
	if len(guards) == 0 {
		return
	}
	// guardClasses[T] is the set of lock classes protecting T's annotated
	// fields — what a call to one of T's *Locked methods asserts is held.
	guardClasses := map[string][]string{}
	for typeName, fields := range guards {
		seen := map[string]bool{}
		for _, spec := range fields {
			cls := spec.class(typeName)
			if !seen[cls] {
				seen[cls] = true
				guardClasses[typeName] = append(guardClasses[typeName], cls)
			}
		}
		sort.Strings(guardClasses[typeName])
	}
	sums := computeSummaries(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Caller-holds-the-lock naming convention: the body (and its
			// closures) is the caller's critical section, not its own.
			if strings.HasSuffix(fd.Name.Name, "Locked") && fd.Name.Name != "Locked" {
				continue
			}
			ctx := &guardedContext{
				pass:         pass,
				fnName:       fd.Name.Name,
				guards:       guards,
				guardClasses: guardClasses,
				sums:         sums,
				constructed:  constructedLocals(fd.Body),
			}
			ctx.check(fd.Body, facts{})
		}
	}
}

// guardedContext carries what one function's flow check needs.
type guardedContext struct {
	pass         *Pass
	fnName       string
	guards       map[string]map[string]guardSpec
	guardClasses map[string][]string
	sums         map[types.Object]*funcSummary
	constructed  map[string]bool
}

// check runs the must-hold-lock analysis over one body and reports
// unguarded accesses. Function literals inside the body are re-checked as
// separate contexts with no entry facts: a closure may run on another
// goroutine, so it cannot inherit the spawning path's lock state.
func (c *guardedContext) check(body *ast.BlockStmt, entry facts) {
	g := buildCFG(body)
	step := func(n ast.Node, f facts) {
		lockWalk(n, func(call *ast.CallExpr) {
			if ev, ok := asLockEvent(c.pass, call); ok {
				ev.apply(f)
				return
			}
			applyCallSummary(c.pass, c.sums, call, f)
		})
	}
	in := mustFlow(g, entry, step)
	var lits []*ast.FuncLit
	for _, b := range g.blocks {
		f := in[b]
		if f == nil {
			continue // unreachable (or budget-truncated): unknown state, stay silent
		}
		f = cloneFacts(f)
		for _, n := range b.nodes {
			c.checkNode(n, f)
			step(n, f)
			ast.Inspect(n, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					lits = append(lits, lit)
					return false
				}
				return true
			})
		}
	}
	sub := &guardedContext{
		pass:         c.pass,
		fnName:       c.fnName,
		guards:       c.guards,
		guardClasses: c.guardClasses,
		sums:         c.sums,
		constructed:  map[string]bool{}, // a closure's captures may have escaped
	}
	for _, lit := range lits {
		sub.check(lit.Body, facts{})
	}
}

// checkNode verifies every guarded field access and *Locked call in one
// CFG node against the facts holding when the node executes. Function
// literals are pruned (checked as separate contexts).
func (c *guardedContext) checkNode(n ast.Node, f facts) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			c.checkAccess(n, f)
		case *ast.CallExpr:
			c.checkLockedCall(n, f)
		}
		return true
	})
}

func (c *guardedContext) checkAccess(sel *ast.SelectorExpr, f facts) {
	baseT := c.pass.TypeOf(sel.X)
	named := namedTypeName(baseT)
	if named == "" {
		return
	}
	spec, ok := c.guards[named][sel.Sel.Name]
	if !ok {
		return
	}
	if f["c:"+spec.class(named)] {
		return
	}
	if spec.owner == "" {
		if base := exprPath(sel.X); base != "" && f["e:"+base+"."+spec.mu] {
			return
		}
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && c.constructed[id.Name] {
		return
	}
	c.pass.Reportf(sel.Pos(), "%s.%s is guarded by %s, but %s does not hold it on every path to this access: lock it, use the *Locked naming convention if the caller holds it, or annotate why the access is safe",
		named, sel.Sel.Name, spec, c.fnName)
}

// checkLockedCall enforces the other half of the *Locked convention: a
// call to T's fooLocked method asserts the caller holds one of T's guard
// mutexes, so calling it without one defeats the analysis.
func (c *guardedContext) checkLockedCall(call *ast.CallExpr, f facts) {
	obj := calleeObject(c.pass, call)
	fn, ok := obj.(*types.Func)
	if !ok || !strings.HasSuffix(fn.Name(), "Locked") || fn.Name() == "Locked" {
		return
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return
	}
	typeName := namedTypeName(recv.Type())
	classes := c.guardClasses[typeName]
	if len(classes) == 0 {
		return
	}
	for _, cls := range classes {
		if f["c:"+cls] {
			return
		}
	}
	if base := callRecvPath(call); base != "" && c.constructed[strings.SplitN(base, ".", 2)[0]] {
		return
	}
	c.pass.Reportf(call.Pos(), "%s asserts the caller holds %s, but no path to this call holds it",
		fn.Name(), strings.Join(classes, " or "))
}

// constructedLocals collects local variables assigned from construction
// expressions (&T{…}, T{…}, new(T)): the value cannot be shared with
// another goroutine yet, so field initialization is lock-free by design.
func constructedLocals(body *ast.BlockStmt) map[string]bool {
	constructed := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if isFreshValue(rhs) {
				constructed[id.Name] = true
			}
		}
		return true
	})
	return constructed
}

// guardedFields collects `guarded by` annotations per struct type. The
// sibling form must name a sibling field; the dotted form must name a
// type declared in this package together with one of its fields —
// violations are reported, and annotations that fail drop out of the
// collection.
func guardedFields(pass *Pass) map[string]map[string]guardSpec {
	type annotated struct {
		typeName string
		field    *ast.Field
		guard    guardSpec
	}
	structs := map[string]map[string]bool{} // type name -> field set
	var anns []annotated
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				fields := map[string]bool{}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						fields[n.Name] = true
					}
					if g, ok := guardAnnotation(f); ok {
						anns = append(anns, annotated{ts.Name.Name, f, g})
					}
				}
				structs[ts.Name.Name] = fields
			}
		}
	}

	out := map[string]map[string]guardSpec{}
	for _, a := range anns {
		g := a.guard
		switch ownerFields, declared := structs[g.owner]; {
		case g.owner == "" && !structs[a.typeName][g.mu]:
			pass.Reportf(a.field.Pos(), "field is `guarded by %s` but %s.%s does not exist: the guard must be a sibling field (or use the Type.field form)", g.mu, a.typeName, g.mu)
		case g.owner != "" && !declared:
			pass.Reportf(a.field.Pos(), "field is `guarded by %s.%s` but type %s is not declared in this package", g.owner, g.mu, g.owner)
		case g.owner != "" && !ownerFields[g.mu]:
			pass.Reportf(a.field.Pos(), "field is `guarded by %s.%s` but %s has no field %s", g.owner, g.mu, g.owner, g.mu)
		default:
			if out[a.typeName] == nil {
				out[a.typeName] = map[string]guardSpec{}
			}
			for _, n := range a.field.Names {
				out[a.typeName][n.Name] = g
			}
		}
	}
	return out
}

func guardAnnotation(f *ast.Field) (guardSpec, bool) {
	for _, cg := range []*ast.CommentGroup{f.Comment, f.Doc} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			if owner, mu, ok := strings.Cut(m[1], "."); ok {
				return guardSpec{mu: mu, owner: owner}, true
			}
			return guardSpec{mu: m[1]}, true
		}
	}
	return guardSpec{}, false
}

// isFreshValue recognizes construction expressions: the value cannot be
// shared with another goroutine yet, so field initialization is lock-free
// by design.
func isFreshValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := e.X.(*ast.CompositeLit)
		return lit
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}
