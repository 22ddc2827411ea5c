package main

// Forward dataflow over a funcCFG, and the lock-state transfer functions
// the guarded analyzer runs on it.
//
// Facts are strings; a fact set is a map. The engine runs a must-analysis:
// the meet over incoming edges is set intersection, and a block that was
// never reached holds nil — the top element — so unreachable code is
// silently skipped rather than reported against.
//
// Lock state uses two fact shapes:
//
//	"e:" + path           this exact expression's mutex is held (e:s.mu)
//	"c:" + Type.field     some instance of this class of mutex is held
//	                      (c:Service.mu) — named receiver type + field
//
// A local (non-field) mutex has only its "e:" fact.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

type facts map[string]bool

func cloneFacts(f facts) facts {
	c := make(facts, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}

// intersectInto removes from dst every fact not in src, reporting whether
// dst changed.
func intersectInto(dst, src facts) bool {
	changed := false
	for k := range dst {
		if !src[k] {
			delete(dst, k)
			changed = true
		}
	}
	return changed
}

func sortedFacts(f facts) []string {
	out := make([]string, 0, len(f))
	for k := range f {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mustFlow runs the forward must-analysis: entry facts at g.entry, step
// applied to every node in block order, intersection at joins. It returns
// the fact set at each block's entry; nil means the block was never
// reached (unreachable, or the visit budget ran out — both are treated as
// unknown, and clients skip checks there). The budget bounds pathological
// CFGs so a lint sweep can never spin: it is ~64 visits per block, far
// beyond what a two-element powerset lattice needs to converge.
func mustFlow(g *funcCFG, entry facts, step func(n ast.Node, f facts)) map[*block]facts {
	in := make(map[*block]facts, len(g.blocks))
	in[g.entry] = cloneFacts(entry)
	work := []*block{g.entry}
	budget := 64*len(g.blocks) + 256
	for len(work) > 0 && budget > 0 {
		budget--
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := cloneFacts(in[b])
		for _, n := range b.nodes {
			step(n, out)
		}
		for _, s := range b.succs {
			cur, seen := in[s]
			if !seen {
				in[s] = cloneFacts(out)
				work = append(work, s)
				continue
			}
			if intersectInto(cur, out) {
				work = append(work, s)
			}
		}
	}
	return in
}

// ---------------------------------------------------------------------------
// Lock events

const recvPlaceholder = "◊" // ◊ — receiver slot in a summary fact

type lockEvent struct {
	acquire bool
	expr    string // rendered mutex expression ("s.mu", "mu"); may be ""
	class   string // "Type.field" for a field of a named type; "" for locals
}

// exprPath renders a selector chain of identifiers ("s.cache.mu").
// Anything else — calls, index expressions — renders as "", meaning the
// mutex instance is not statically nameable.
func exprPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprPath(e.X)
	}
	return ""
}

// namedTypeName returns the bare name of the named struct type behind t
// (unwrapping pointers and aliases), or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// asLockEvent decodes call as a Lock/Unlock-family call on a sync mutex.
// TryLock is (unsoundly) treated as an unconditional acquire; the repo
// does not use TryLock.
func asLockEvent(pass *Pass, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockEvent{}, false
	}
	if !isMutexType(pass.TypeOf(sel.X)) {
		return lockEvent{}, false
	}
	ev := lockEvent{acquire: acquire}
	switch mx := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		ev.expr = exprPath(mx)
		if owner := namedTypeName(pass.TypeOf(mx.X)); owner != "" {
			ev.class = owner + "." + mx.Sel.Name
		}
	case *ast.Ident:
		ev.expr = mx.Name
	}
	return ev, true
}

func (ev lockEvent) factNames() []string {
	var out []string
	if ev.expr != "" {
		out = append(out, "e:"+ev.expr)
	}
	if ev.class != "" {
		out = append(out, "c:"+ev.class)
	}
	return out
}

func (ev lockEvent) apply(f facts) {
	for _, name := range ev.factNames() {
		if ev.acquire {
			f[name] = true
		} else {
			delete(f, name)
		}
	}
}

// ---------------------------------------------------------------------------
// One-level call summaries

// funcSummary is the one-level effect of calling a function: the lock
// facts it is guaranteed to add (held at every return, starting from
// none) and the facts it may remove (any Unlock in the body). Summaries
// are computed without applying other summaries — strictly one level
// deep, so the fixpoint stays trivial and the approximation direction is
// documented.
type funcSummary struct {
	netAcquire []string
	mayRelease []string
}

// abstractRecv rewrites an expression fact rooted at the receiver recv to
// the ◊ placeholder so a call site can substitute its own receiver path.
func abstractRecv(fact, recv string) string {
	path, ok := strings.CutPrefix(fact, "e:")
	if !ok || recv == "" {
		return fact
	}
	if path == recv {
		return "e:" + recvPlaceholder
	}
	if rest, ok := strings.CutPrefix(path, recv+"."); ok {
		return "e:" + recvPlaceholder + "." + rest
	}
	return fact
}

// concretizeFact substitutes the call-site receiver path for ◊. With no
// nameable receiver the expression fact is dropped (only "e:" facts carry
// ◊; class facts pass through).
func concretizeFact(fact, recv string) (string, bool) {
	if !strings.Contains(fact, recvPlaceholder) {
		return fact, true
	}
	if recv == "" {
		return "", false
	}
	return strings.ReplaceAll(fact, recvPlaceholder, recv), true
}

// receiverName returns the name of fd's receiver ("" for functions and
// anonymous receivers).
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// lockWalk visits the nodes of one CFG block entry that participate in
// lock-state transfer: it descends into expressions but prunes function
// literals (their bodies run later, as separate contexts) and the calls
// deferred or spawned by defer/go statements (a deferred Unlock runs at
// return, so the lock stays held for the rest of the body; arguments to
// the deferred call are still evaluated here and are visited).
func lockWalk(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			walkCallArgs(n.Call, visit)
			return false
		case *ast.GoStmt:
			walkCallArgs(n.Call, visit)
			return false
		case *ast.CallExpr:
			visit(n)
		}
		return true
	})
}

func walkCallArgs(call *ast.CallExpr, visit func(*ast.CallExpr)) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if c, ok := n.(*ast.CallExpr); ok {
				visit(c)
			}
			return true
		})
	}
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

// callRecvPath renders the call's receiver expression ("s" in s.m()),
// or "" when the callee is not a method call on a nameable receiver.
func callRecvPath(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return exprPath(sel.X)
	}
	return ""
}

// computeSummaries builds the one-level summary of every function
// declaration in the unit, keyed by its types.Object. Only functions
// whose bodies contain a lock event get an entry.
func computeSummaries(pass *Pass) map[types.Object]*funcSummary {
	sums := make(map[types.Object]*funcSummary)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			sum := summarizeFunc(pass, fd)
			if sum != nil {
				sums[obj] = sum
			}
		}
	}
	return sums
}

func summarizeFunc(pass *Pass, fd *ast.FuncDecl) *funcSummary {
	// Cheap pre-scan: most functions have no lock events at all.
	touchesLocks := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if touchesLocks {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := asLockEvent(pass, call); ok {
				touchesLocks = true
			}
		}
		return true
	})
	if !touchesLocks {
		return nil
	}

	recv := receiverName(fd)
	sum := &funcSummary{}
	g := buildCFG(fd.Body)
	in := mustFlow(g, facts{}, func(n ast.Node, f facts) {
		lockWalk(n, func(call *ast.CallExpr) {
			if ev, ok := asLockEvent(pass, call); ok {
				ev.apply(f)
			}
		})
	})
	if exitFacts := in[g.exit]; exitFacts != nil {
		exitFacts = cloneFacts(exitFacts)
		// Inside the body a deferred Unlock keeps the lock held (lockWalk
		// prunes defers), but it runs before control returns to the caller:
		// the net effect must not claim locks a deferred release drops, or
		// every Lock/defer-Unlock helper would look like it returns locked.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ds, ok := n.(*ast.DeferStmt)
			if !ok {
				return true
			}
			ast.Inspect(ds, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if ev, ok := asLockEvent(pass, call); ok && !ev.acquire {
						ev.apply(exitFacts)
					}
				}
				return true
			})
			return true
		})
		for _, fact := range sortedFacts(exitFacts) {
			sum.netAcquire = append(sum.netAcquire, abstractRecv(fact, recv))
		}
	}
	net := make(map[string]bool, len(sum.netAcquire))
	for _, f := range sum.netAcquire {
		net[f] = true
	}
	seenRelease := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ev, ok := asLockEvent(pass, call)
		if !ok || ev.acquire {
			return true
		}
		for _, fact := range ev.factNames() {
			abs := abstractRecv(fact, recv)
			if !net[abs] && !seenRelease[abs] {
				seenRelease[abs] = true
				sum.mayRelease = append(sum.mayRelease, abs)
			}
		}
		return true
	})
	sort.Strings(sum.mayRelease)
	return sum
}

// applyCallSummary transfers a callee's one-level summary into the
// caller's fact set. *Locked-suffix callees are assumed to preserve lock
// state (their contract is "caller already holds the lock").
func applyCallSummary(pass *Pass, sums map[types.Object]*funcSummary, call *ast.CallExpr, f facts) {
	obj := calleeObject(pass, call)
	if obj == nil {
		return
	}
	sum, ok := sums[obj]
	if !ok || strings.HasSuffix(obj.Name(), "Locked") {
		return
	}
	recv := callRecvPath(call)
	for _, fact := range sum.mayRelease {
		if conc, ok := concretizeFact(fact, recv); ok {
			delete(f, conc)
		}
	}
	for _, fact := range sum.netAcquire {
		if conc, ok := concretizeFact(fact, recv); ok {
			f[conc] = true
		}
	}
}
