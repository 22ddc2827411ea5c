package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goleakAnalyzer requires every `go` statement to be tied to a shutdown
// signal, the drain contract of DESIGN.md §10: a service that cannot stop
// its goroutines cannot drain. A spawn passes if the spawned body (a
// function literal, or a same-unit function declaration — one level)
// observes any of:
//
//   - a context: ctx.Done() / ctx.Err() on a context.Context;
//   - a channel: a receive (<-ch, including select cases) or a
//     range-over-channel — done-channels and task queues both count;
//   - a WaitGroup: wg.Done() or wg.Wait() — the goroutine participates in
//     a join the owner waits on (jobsWG in the Service drain path).
//
// A goroutine running a function from another package is tied if the call
// passes a context, a channel, or a *sync.WaitGroup argument — the callee
// is assumed to honor it. Anything else needs
// //mcmlint:ignore goleak <reason>, making untracked lifecycles visible
// in review (e.g. a goroutine bounded by closing a net.Listener).
var goleakAnalyzer = &Analyzer{
	Name: "goleak",
	Run:  runGoleak,
}

func runGoleak(pass *Pass) {
	if pass.Info == nil {
		return
	}
	decls := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goStmtTied(pass, decls, gs) {
				pass.Reportf(gs.Pos(), "goroutine is not tied to a shutdown signal: select on a ctx/done channel, join a WaitGroup, or annotate //mcmlint:ignore goleak <reason> (see DESIGN.md §10, the drain contract)")
			}
			return true
		})
	}
}

func goStmtTied(pass *Pass, decls map[types.Object]*ast.FuncDecl, gs *ast.GoStmt) bool {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return bodyObservesSignal(pass, fun.Body)
	default:
		if obj := calleeObject(pass, gs.Call); obj != nil {
			if fd, ok := decls[obj]; ok {
				return bodyObservesSignal(pass, fd.Body)
			}
		}
	}
	// Cross-package (or unresolvable) callee: accept when the spawn hands
	// it a shutdown-capable argument.
	for _, arg := range gs.Call.Args {
		if isSignalType(pass.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// bodyObservesSignal reports whether the body contains any shutdown
// observation. Nested function literals are included: a goroutine that
// delegates its select to a closure is still tied.
func bodyObservesSignal(pass *Pass, body *ast.BlockStmt) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				tied = true
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					tied = true
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recvT := pass.TypeOf(sel.X)
			switch sel.Sel.Name {
			case "Done", "Err":
				if isContextType(recvT) || (sel.Sel.Name == "Done" && isWaitGroupType(recvT)) {
					tied = true
				}
			case "Wait":
				if isWaitGroupType(recvT) {
					tied = true
				}
			}
		}
		return true
	})
	return tied
}

// calleeObject resolves the called function's object, or nil.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		return pass.Info.Uses[fun.Sel]
	}
	return nil
}

func isSignalType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	return isContextType(t) || isWaitGroupType(t)
}

func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isWaitGroupType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
