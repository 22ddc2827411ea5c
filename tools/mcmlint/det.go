package main

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// detAnalyzer enforces byte-reproducibility in packages annotated
// //mcmlint:deterministic. Two of its three rules are rows of callRules
// (forbid.go): no time.Now, no draw from the global math/rand source. The
// third is its own: ranging over a map while appending into an output
// slice, without a sort of that slice later in the same block — map
// iteration order is randomized per run, so the output ordering leaks
// nondeterminism. The deterministic idiom (collect keys, sort, then index)
// is accepted.
var detAnalyzer = &Analyzer{
	Name: "det",
	Run: func(pass *Pass) {
		if !pass.HasDirective("deterministic") {
			return
		}
		pass.reportForbiddenCalls()
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if block, ok := n.(*ast.BlockStmt); ok {
					detMapRanges(pass, block)
				}
				return true
			})
		}
	},
}

// detMapRanges flags `for … := range m` statements over maps whose body
// appends into an output slice, unless a later statement in the same block
// sorts that slice (the collect-keys-then-sort idiom).
func detMapRanges(pass *Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		rs, ok := stmt.(*ast.RangeStmt)
		if !ok || !isMapType(pass, rs.X) {
			continue
		}
		targets := appendTargets(rs.Body)
		if len(targets) == 0 {
			continue
		}
		if sortedLater(block.List[i+1:], targets) {
			continue
		}
		pass.Reportf(rs.Pos(),
			"appending to %s while ranging over a map: iteration order is randomized; collect and sort keys first, or sort the result before use",
			strings.Join(targets, ", "))
	}
}

func isMapType(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// appendTargets returns the names of variables assigned from append(...)
// calls anywhere in the loop body (v = append(v, …) and v := append(…)).
func appendTargets(body *ast.BlockStmt) []string {
	seen := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
				continue
			}
			if i < len(as.Lhs) {
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					seen[id.Name] = true
				}
			}
		}
		return true
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sortedLater reports whether any statement in stmts calls a sort/slices
// sorting function mentioning one of the target variables — which launders
// the nondeterministic collection order back into a canonical one.
func sortedLater(stmts []ast.Stmt, targets []string) bool {
	want := map[string]bool{}
	for _, t := range targets {
		want[t] = true
	}
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
				return true
			}
			if !strings.HasPrefix(sel.Sel.Name, "Sort") && !strings.HasPrefix(sel.Sel.Name, "Strings") &&
				!strings.HasPrefix(sel.Sel.Name, "Ints") && !strings.HasPrefix(sel.Sel.Name, "Float64s") &&
				!strings.HasPrefix(sel.Sel.Name, "Slice") && !strings.HasPrefix(sel.Sel.Name, "Stable") {
				return true
			}
			ast.Inspect(call, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && want[id.Name] {
					found = true
				}
				return !found
			})
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
