package main

import (
	"go/ast"
	"go/token"
)

// ctxloopAnalyzer enforces the PR 3 cancellation contract: every
// sample-budget loop stops at a sample boundary when its context is
// cancelled, returning best-so-far work plus ctx.Err(). Concretely: in a
// function that takes a context.Context, a condition-controlled for loop
// that never consults the context — no ctx.Err()/ctx.Done() in its
// condition or body and no callee receiving ctx — cannot observe
// cancellation and runs to budget exhaustion.
//
// Mentioning the context anywhere in the loop (condition, body, or a
// nested call that receives it and owns the boundary check) satisfies the
// contract. Exempt by construction:
//
//   - range loops: bounded by data, not by a budget;
//   - loops whose trip count is an integer literal (bounded retries);
//   - functions whose context parameter is named _ (they accepted a ctx
//     for interface shape only and declared they will not check it).
var ctxloopAnalyzer = &Analyzer{
	Name: "ctxloop",
	Run:  runCtxloop,
}

func runCtxloop(pass *Pass) {
	for _, file := range pass.Files {
		ctxName := importName(file, "context")
		if ctxName == "" {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			names := ctxParamNames(fd.Type, ctxName)
			if len(names) == 0 {
				continue
			}
			checkCtxLoops(pass, fd.Body, names)
		}
	}
}

// ctxParamNames returns the names of parameters of type context.Context
// (or *context.Context), skipping blank ones.
func ctxParamNames(ft *ast.FuncType, ctxName string) map[string]bool {
	if ft.Params == nil {
		return nil
	}
	var out map[string]bool
	for _, field := range ft.Params.List {
		t := field.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		sel, ok := t.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		if base, ok := sel.X.(*ast.Ident); !ok || base.Name != ctxName {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if out == nil {
				out = map[string]bool{}
			}
			out[name.Name] = true
		}
	}
	return out
}

func checkCtxLoops(pass *Pass, body *ast.BlockStmt, ctxNames map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		fs, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if literalTripCount(fs) {
			return true
		}
		if mentionsAny(fs, ctxNames) {
			return true
		}
		pass.Reportf(fs.Pos(), "loop never consults %s: check ctx.Err() (or pass ctx to the callee) each iteration so cancellation stops at a sample boundary",
			anyName(ctxNames))
		return true
	})
}

// literalTripCount reports the classic bounded-retry shape
// `for i := 0; i < <int literal>; i++` (and <=): a fixed, typically small
// number of iterations, not a sample budget.
func literalTripCount(fs *ast.ForStmt) bool {
	if fs.Cond == nil {
		return false
	}
	be, ok := fs.Cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.LSS && be.Op != token.LEQ && be.Op != token.GTR && be.Op != token.GEQ) {
		return false
	}
	isLit := func(e ast.Expr) bool {
		bl, ok := e.(*ast.BasicLit)
		return ok && bl.Kind == token.INT
	}
	return isLit(be.X) || isLit(be.Y)
}

// mentionsAny reports whether any identifier in the subtree is one of the
// given names — a ctx.Err() check, a <-ctx.Done() select, or a callee
// receiving ctx all count.
func mentionsAny(n ast.Node, names map[string]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && names[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

func anyName(names map[string]bool) string {
	best := ""
	for n := range names {
		if best == "" || n < best {
			best = n
		}
	}
	return best
}
