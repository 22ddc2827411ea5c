package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorderAnalyzer builds the unit's lock-acquisition graph and reports
// cycles — the static shape of a potential deadlock. An edge A → B is
// recorded whenever a mutex of class B (named type + field, e.g. Job.mu)
// is acquired at a point where a mutex of class A is held on every path;
// held-ness comes from the same must-hold-lock dataflow guarded v2 uses,
// so defer Unlock, early returns, and branches are all respected.
//
// Acquisitions are seen three ways:
//
//   - directly: s.mu.Lock() while another lock is held;
//   - through one-level call summaries: calling a helper whose body locks
//     (j.Status() under Service.mu records Service.mu → Job.mu);
//   - across packages, approximately: calling a method of an imported
//     type that has mutex fields while holding a lock records an edge to
//     every such field (pkg.Type.field) — the callee is assumed to be
//     lock-balanced, so held facts do not change.
//
// *Locked-suffix methods are analyzed with their receiver type's guard
// mutexes seeded as held (that is the convention's assertion), which is
// how a chain like Submit → registerJobLocked → Job.Status surfaces as
// Service.mu → Job.mu one summary level at a time.
//
// The graph is per build unit. Go's import graph is acyclic and lock
// classes are namespaced by package, so a cross-package inversion would
// need an upcall (a callback into the importing package) — invisible to
// any static call analysis, summaries or not; see DESIGN.md §13.
//
// Re-acquiring the exact mutex expression already held (m.Lock() twice
// with no Unlock between) is reported immediately as a self-deadlock.
// TryLock is treated as an unconditional acquire.
var lockorderAnalyzer = &Analyzer{
	Name: "lockorder",
	Run:  runLockorder,
}

// lockEdge is the first observed acquisition of `to` while holding `from`.
type lockEdge struct {
	pos token.Pos // where `to` was acquired
	fn  string    // enclosing function
}

type lockGraph struct {
	pass  *Pass
	sums  map[types.Object]*funcSummary
	edges map[string]map[string]lockEdge // from class -> to class -> site
}

func runLockorder(pass *Pass) {
	if pass.Info == nil {
		return
	}
	sums := computeSummaries(pass)
	guards, _ := guardedFields(pass) // annotation issues are guarded's to report
	lg := &lockGraph{pass: pass, sums: sums, edges: map[string]map[string]lockEdge{}}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			entry := facts{}
			if strings.HasSuffix(fd.Name.Name, "Locked") && fd.Name.Name != "Locked" {
				seedLockedEntry(fd, guards, entry)
			}
			lg.walk(fd.Name.Name, fd.Body, entry)
		}
	}
	lg.reportCycles()
}

// seedLockedEntry marks the receiver type's guard mutexes held, which is
// what the *Locked suffix asserts about the caller. When a type has
// several guard mutexes the seeding is an over-approximation (edges are
// may-facts; held state stays must).
func seedLockedEntry(fd *ast.FuncDecl, guards map[string]map[string]guardSpec, entry facts) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return
	}
	recvName := receiverName(fd)
	typeName := baseTypeName(fd.Recv.List[0].Type)
	seen := map[string]bool{}
	for _, spec := range guards[typeName] {
		cls := spec.class(typeName)
		if seen[cls] {
			continue
		}
		seen[cls] = true
		entry["c:"+cls] = true
		if spec.owner == "" && recvName != "" {
			expr := recvName + "." + spec.mu
			entry["e:"+expr] = true
			entry["a:"+cls+"|"+expr] = true
		} else {
			entry["a:"+cls+"|"] = true
		}
	}
}

// baseTypeName extracts the receiver type name from an ast receiver type
// expression (unwrapping pointers and generics).
func baseTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return baseTypeName(e.X)
	case *ast.IndexExpr:
		return baseTypeName(e.X)
	case *ast.IndexListExpr:
		return baseTypeName(e.X)
	}
	return ""
}

// walk runs the dataflow over one body and records edges at every
// acquisition made while locks are held. Function literals are separate
// contexts starting with nothing held.
func (lg *lockGraph) walk(fnName string, body *ast.BlockStmt, entry facts) {
	g := buildCFG(body)
	step := func(n ast.Node, f facts) {
		lockWalk(n, func(call *ast.CallExpr) {
			if ev, ok := asLockEvent(lg.pass, call); ok {
				ev.apply(f)
				return
			}
			applyCallSummary(lg.pass, lg.sums, call, f)
		})
	}
	in := mustFlow(g, entry, step)

	var lits []*ast.FuncLit
	for _, b := range g.blocks {
		f := in[b]
		if f == nil {
			continue
		}
		f = cloneFacts(f)
		for _, n := range b.nodes {
			lg.observeNode(fnName, n, f)
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
	for _, lit := range lits {
		lg.walk(fnName, lit.Body, facts{})
	}
}

// observeNode fires once per node in a single reporting sweep, with f the
// facts holding when the node executes; it records edges and immediate
// self-deadlocks without mutating f (the caller applies the step after).
func (lg *lockGraph) observeNode(fnName string, n ast.Node, f facts) {
	lockWalk(n, func(call *ast.CallExpr) {
		if ev, ok := asLockEvent(lg.pass, call); ok {
			if !ev.acquire {
				return
			}
			if ev.expr != "" && f["e:"+ev.expr] && exclusiveAcquire(call) {
				lg.pass.Reportf(call.Pos(), "%s is already held on every path to this Lock: guaranteed self-deadlock", ev.expr)
			}
			if ev.class != "" {
				lg.addEdges(fnName, f, ev.class, ev.expr, call.Pos())
			}
			return
		}
		obj := calleeObject(lg.pass, call)
		if obj == nil {
			return
		}
		if sum, ok := lg.sums[obj]; ok {
			recv := callRecvPath(call)
			for _, acq := range sum.acquires {
				expr := strings.ReplaceAll(acq.expr, recvPlaceholder, recv)
				lg.addEdges(fnName, f, acq.class, expr, call.Pos())
			}
			return
		}
		lg.crossPackageEdges(fnName, f, obj, call)
	})
}

func exclusiveAcquire(call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name == "Lock" || sel.Sel.Name == "TryLock"
	}
	return false
}

// crossPackageEdges approximates lock acquisition inside an imported
// type's method: any mutex field of the receiver type becomes an edge
// target (pkg.Type.field). Held facts are not changed — the callee is
// assumed lock-balanced.
func (lg *lockGraph) crossPackageEdges(fnName string, f facts, obj types.Object, call *ast.CallExpr) {
	if len(f) == 0 {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() == lg.pass.Pkg {
		return
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if !isMutexType(fld.Type()) {
			continue
		}
		cls := fn.Pkg().Name() + "." + named.Obj().Name() + "." + fld.Name()
		lg.addEdges(fnName, f, cls, "", call.Pos())
	}
}

// addEdges records from→acquired for every held lock class. Acquiring the
// same class through a different expression is a self-edge (two instances
// of one class, the classic AB/BA inversion collapsed onto one type).
func (lg *lockGraph) addEdges(fnName string, f facts, toClass, toExpr string, pos token.Pos) {
	for _, held := range heldAssociations(f) {
		fromClass, fromExpr := held[0], held[1]
		if fromClass == toClass && (fromExpr == toExpr || toExpr == "") {
			continue // re-entry on the same instance is the self-deadlock check's job
		}
		m := lg.edges[fromClass]
		if m == nil {
			m = map[string]lockEdge{}
			lg.edges[fromClass] = m
		}
		if _, ok := m[toClass]; !ok {
			m[toClass] = lockEdge{pos: pos, fn: fnName}
		}
	}
}

// reportCycles finds every elementary cycle reachable in the edge graph
// (deduplicated by rotation) and names each hop's acquisition site.
func (lg *lockGraph) reportCycles() {
	nodes := make([]string, 0, len(lg.edges))
	for n := range lg.edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	reported := map[string]bool{}
	var dfs func(path []string, onPath map[string]bool)
	dfs = func(path []string, onPath map[string]bool) {
		cur := path[len(path)-1]
		succs := make([]string, 0, len(lg.edges[cur]))
		for to := range lg.edges[cur] {
			succs = append(succs, to)
		}
		sort.Strings(succs)
		for _, to := range succs {
			if onPath[to] {
				// Close the cycle only at its start to report it once per
				// entry point; rotation dedup handles the rest.
				if to == path[0] {
					lg.reportCycle(append(append([]string(nil), path...), to), reported)
				}
				continue
			}
			onPath[to] = true
			dfs(append(path, to), onPath)
			delete(onPath, to)
		}
	}
	for _, n := range nodes {
		dfs([]string{n}, map[string]bool{n: true})
	}
}

// reportCycle emits one finding for the cycle path[0] → … → path[0],
// unless a rotation of it was already reported.
func (lg *lockGraph) reportCycle(path []string, reported map[string]bool) {
	cycle := path[:len(path)-1]
	key := canonicalCycle(cycle)
	if reported[key] {
		return
	}
	reported[key] = true

	var hops []string
	var firstPos token.Pos
	for i := 0; i < len(cycle); i++ {
		from, to := cycle[i], cycle[(i+1)%len(cycle)]
		e := lg.edges[from][to]
		if firstPos == token.NoPos {
			firstPos = e.pos
		}
		hops = append(hops, fmt.Sprintf("%s -> %s (acquired at %s in %s)",
			from, to, lg.pass.Fset.Position(e.pos), e.fn))
	}
	lg.pass.Reportf(firstPos, "lock-order cycle (potential deadlock): %s", strings.Join(hops, "; "))
}

// canonicalCycle rotates the cycle so its lexicographically smallest node
// leads, giving every rotation the same key.
func canonicalCycle(cycle []string) string {
	min := 0
	for i, n := range cycle {
		if n < cycle[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
	return strings.Join(rotated, "→")
}
