package main

import (
	"go/ast"
	"go/types"
)

// hotallocAnalyzer complements the AllocsPerRun regression tests: those
// pin the allocation count of specific entry points after the fact, this
// flags the per-iteration allocation patterns at the line that introduces
// them. It only runs in packages annotated //mcmlint:hotpath (mat, nn,
// gnn, cpsolver, analyze, parallel, telemetry, sched, hwsim, search,
// jsonscan — the zero-alloc PR 1 contract). Inside any loop it reports:
//
//   - append into a slice the function declared without capacity
//     (`var s []T` / `s := []T{}`): every growth step reallocates and
//     copies; preallocate with make(len/cap) outside the loop;
//   - fmt formatting calls outside cold paths — a row of callRules
//     (forbid.go), sharing ancestorContext's notion of hot and cold;
//   - function literals that capture enclosing-function variables: the
//     capture forces the closure (and captured slots) to escape to the
//     heap on every iteration; hoist the literal or pass values as
//     parameters. Literals handed directly to a call-and-discard callee
//     (the sort package's predicate takers, rand.Rand.Shuffle) are
//     exempt — the callee never retains the closure, so escape analysis
//     keeps it on the stack;
//   - explicit conversions to an interface type: boxing allocates per
//     iteration.
var hotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) {
	if !pass.HasDirective("hotpath") {
		return
	}
	pass.reportForbiddenCalls()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkHotFunc(pass, fd)
			}
		}
	}
}

// checkHotFunc inspects one function with ancestor context: loop depth is
// the number of enclosing for/range statements inside the innermost
// enclosing function (a func literal resets it — its body runs when
// called, not per iteration of the loop that builds it), and a node is
// cold when an ancestor is a return, defer, or panic (one-shot exit
// paths, not steady-state iterations).
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	decls := sliceDecls(fd)
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		depth, cold := ancestorContext(stack[:len(stack)-1])
		switch n := n.(type) {
		case *ast.AssignStmt:
			if depth > 0 {
				checkHotAppend(pass, n, decls)
			}
		case *ast.CallExpr:
			if depth > 0 && !cold {
				checkInterfaceConversion(pass, n)
			}
		case *ast.FuncLit:
			if depth > 0 && !cold && !handedToNonRetainingCall(pass, stack, n) {
				if name := capturedVar(pass, fd, n); name != "" {
					pass.Reportf(n.Pos(), "closure captures %s and escapes to the heap on every iteration; hoist it out of the loop or pass values as parameters", name)
				}
			}
		}
		return true
	})
}

// ancestorContext derives (loop depth, coldness) from the ancestor stack,
// resetting both at the innermost func literal boundary.
func ancestorContext(ancestors []ast.Node) (depth int, cold bool) {
	for i := len(ancestors) - 1; i >= 0; i-- {
		switch a := ancestors[i].(type) {
		case *ast.FuncLit:
			return depth, cold
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		case *ast.ReturnStmt, *ast.DeferStmt:
			cold = true
		case *ast.CallExpr:
			if id, ok := a.Fun.(*ast.Ident); ok && id.Name == "panic" {
				cold = true
			}
		}
	}
	return depth, cold
}

// sliceDecl records how a function-local slice variable was declared.
type sliceDecl struct {
	preallocated bool
}

// sliceDecls collects the function's local slice declarations. Only
// declarations whose allocation behavior is evident are recorded:
// `var s []T` and empty-literal forms are growth-from-nil, any make() is
// treated as preallocated, everything else (results of calls, parameters)
// is unknown and never flagged.
func sliceDecls(fd *ast.FuncDecl) map[string]sliceDecl {
	out := map[string]sliceDecl{}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				if _, ok := vs.Type.(*ast.ArrayType); ok {
					if at := vs.Type.(*ast.ArrayType); at.Len == nil { // slice, not array
						for _, name := range vs.Names {
							out[name.Name] = sliceDecl{preallocated: false}
						}
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := rhs.(type) {
				case *ast.CompositeLit:
					if at, ok := rhs.Type.(*ast.ArrayType); ok && at.Len == nil && len(rhs.Elts) == 0 {
						out[id.Name] = sliceDecl{preallocated: false}
					}
				case *ast.CallExpr:
					if fn, ok := rhs.Fun.(*ast.Ident); ok && fn.Name == "make" {
						out[id.Name] = sliceDecl{preallocated: true}
					}
				}
			}
		}
		return true
	})
	return out
}

// checkHotAppend flags `s = append(s, …)` in a loop when s was declared
// in this function without capacity.
func checkHotAppend(pass *Pass, as *ast.AssignStmt, decls map[string]sliceDecl) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		if d, known := decls[id.Name]; known && !d.preallocated {
			pass.Reportf(call.Pos(), "append to %s inside a hot loop, but it was declared without capacity: preallocate with make(…, 0, n) outside the loop", id.Name)
		}
	}
}

// checkInterfaceConversion flags explicit conversions T(x) where T is an
// interface type and x is concrete — boxing that allocates per iteration.
func checkInterfaceConversion(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := typeAndValue(pass, call.Fun)
	if !ok || !tv.IsType() {
		return
	}
	if !types.IsInterface(tv.Type) {
		return
	}
	argT := pass.TypeOf(call.Args[0])
	if argT == nil || types.IsInterface(argT) || isUntypedNil(argT) {
		return
	}
	pass.Reportf(call.Pos(), "conversion to interface type %s inside a hot loop boxes the value per iteration", tv.Type.String())
}

// handedToNonRetainingCall reports whether lit is a direct argument to a
// call whose callee provably does not retain its function argument: any
// function in the sort package (Search, Slice, Find, … all call the
// predicate and discard it) or rand.Rand.Shuffle. For those the closure
// never escapes, so a capture costs nothing per iteration.
func handedToNonRetainingCall(pass *Pass, stack []ast.Node, lit *ast.FuncLit) bool {
	if pass.Info == nil || len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	isArg := false
	for _, a := range call.Args {
		if a == ast.Expr(lit) {
			isArg = true
			break
		}
	}
	if !isArg {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sort" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "math/rand" && o.Name() == "Rand" && fn.Name() == "Shuffle"
}

func typeAndValue(pass *Pass, e ast.Expr) (types.TypeAndValue, bool) {
	if pass.Info == nil {
		return types.TypeAndValue{}, false
	}
	tv, ok := pass.Info.Types[e]
	return tv, ok
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// capturedVar returns the name of one variable the literal captures from
// its enclosing function ("" when it captures nothing the heap cares
// about): an identifier resolving to a variable declared inside fd but
// outside the literal.
func capturedVar(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	if pass.Info == nil {
		return ""
	}
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id]
		if !ok {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			name = v.Name()
			return false
		}
		return true
	})
	return name
}
