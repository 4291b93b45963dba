package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Lock-region analysis, keyed by lock identity.
//
// The scanner walks a body in source order and tracks which mutexes are
// held at each point. Every mutex is tracked separately: a deferred Unlock
// of mutex A pins A (and only A) held to the end of the body, and an
// Unlock of B never releases a held A. The scan stays linear over source
// positions, so branchy early-unlock shapes can still yield false
// negatives — never false positives on straight-line hold regions, the
// documented bias.
//
// TryLock is an acquisition when its result guards the code that follows:
// `if !mu.TryLock() { return }` holds mu from the end of the guard on, and
// `if mu.TryLock() { ... }` (alone or as an operand of &&) holds it inside
// the body. A TryLock whose result goes anywhere else is not tracked.
//
// Function-literal bodies are scanned as their own scopes with an empty
// held set: a closure's locks are taken when the closure runs, not where
// it is written, so attributing them to the surrounding stream would
// corrupt both the enclosing and the closure's regions.

// lockID renders a stable identity for the mutex named by expr (the
// receiver of a Lock/Unlock call): "pkg.Type.field" for struct fields,
// "pkg.var" for package-level mutexes, and a local/spelling fallback
// otherwise. Identities are per declaration, not per instance — the
// granularity every static lock-order analysis works at.
func lockID(p *Package, expr ast.Expr) string {
	e := ast.Unparen(expr)
	shortQual := func(tp *types.Package) string { return tp.Name() }
	switch t := e.(type) {
	case *ast.SelectorExpr:
		if s := p.Info.Selections[t]; s != nil {
			recv := s.Recv()
			for {
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
					continue
				}
				break
			}
			return types.TypeString(recv, shortQual) + "." + t.Sel.Name
		}
	case *ast.Ident:
		if obj := p.Info.Uses[t]; obj != nil {
			if obj.Pkg() != nil {
				return obj.Pkg().Name() + "." + obj.Name()
			}
			return obj.Name()
		}
	}
	return p.Name + ":" + exprText(e)
}

// lockEvent is one entry in the linear scan of a single scope.
type lockEvent struct {
	pos  token.Pos
	kind int    // +1 acquire, -1 release, 2 deferred release, 0 candidate
	id   string // lock identity for kind != 0
	call *ast.CallExpr
}

// lockScope is one body (function or function literal) with nested
// literals split out.
type lockScope struct {
	events []lockEvent
	inner  []*lockScope
}

// classifyLockCall recognizes Lock/RLock (+1) and Unlock/RUnlock (-1) on a
// mutex-named receiver.
func classifyLockCall(call *ast.CallExpr) (recv ast.Expr, kind int, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || !looksLikeMutex(sel.X) {
		return nil, 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return sel.X, +1, true
	case "Unlock", "RUnlock":
		return sel.X, -1, true
	}
	return nil, 0, false
}

// tryLockGuard recognizes an if condition that decides on a TryLock or
// TryRLock of a mutex-named receiver: the call itself, the call as an
// operand of &&, or its negation. negated reports the guard form
// `!mu.TryLock()`, whose body runs when the lock was NOT taken.
func tryLockGuard(cond ast.Expr) (recv ast.Expr, negated, ok bool) {
	cond = ast.Unparen(cond)
	if not, isNot := cond.(*ast.UnaryExpr); isNot && not.Op == token.NOT {
		recv, ok = tryLockCall(ast.Unparen(not.X))
		return recv, true, ok
	}
	if and, isAnd := cond.(*ast.BinaryExpr); isAnd && and.Op == token.LAND {
		for _, side := range []ast.Expr{and.X, and.Y} {
			if recv, neg, ok := tryLockGuard(side); ok && !neg {
				return recv, false, true
			}
		}
		return nil, false, false
	}
	recv, ok = tryLockCall(cond)
	return recv, false, ok
}

func tryLockCall(e ast.Expr) (recv ast.Expr, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return nil, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || !looksLikeMutex(sel.X) {
		return nil, false
	}
	if sel.Sel.Name == "TryLock" || sel.Sel.Name == "TryRLock" {
		return sel.X, true
	}
	return nil, false
}

// leavesScope reports whether a guard body ends by leaving the code that
// follows the if: a return, a branch (continue, break, goto) or a panic.
func leavesScope(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == "panic"
		}
	}
	return false
}

// collectLockScope builds the event stream for one scope, descending
// into blocks but splitting function literals into child scopes.
func collectLockScope(p *Package, body ast.Node, candidate func(*ast.CallExpr) bool) *lockScope {
	sc := &lockScope{}
	spawned := spawnedCalls(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			if st == body {
				return true
			}
			sc.inner = append(sc.inner, collectLockScope(p, st.Body, candidate))
			return false
		case *ast.IfStmt:
			recv, negated, ok := tryLockGuard(st.Cond)
			switch {
			case !ok:
			case !negated:
				sc.events = append(sc.events, lockEvent{pos: st.Body.Lbrace, kind: +1, id: lockID(p, recv)})
			case leavesScope(st.Body):
				sc.events = append(sc.events, lockEvent{pos: st.Body.End(), kind: +1, id: lockID(p, recv)})
			}
		case *ast.DeferStmt:
			if recv, kind, ok := classifyLockCall(st.Call); ok && kind == -1 {
				sc.events = append(sc.events, lockEvent{pos: st.Pos(), kind: 2, id: lockID(p, recv)})
				return false
			}
		case *ast.CallExpr:
			if spawned[st] {
				// A spawned call runs on its own goroutine, not inside
				// this hold region (the literal case is split out above).
				return true
			}
			if recv, kind, ok := classifyLockCall(st); ok {
				sc.events = append(sc.events, lockEvent{pos: st.Pos(), kind: kind, id: lockID(p, recv)})
				return true
			}
			if candidate != nil && candidate(st) {
				sc.events = append(sc.events, lockEvent{pos: st.Pos(), kind: 0, call: st})
			}
		}
		return true
	})
	sort.Slice(sc.events, func(i, j int) bool { return sc.events[i].pos < sc.events[j].pos })
	return sc
}

// replayScope runs the linear held-set simulation over one scope and its
// nested literal scopes (each literal starts with nothing held). acquire,
// when non-nil, sees every acquisition with the identities already held;
// flag sees every candidate call with the identities held at that point
// (possibly none), so callers decide the policy.
func replayScope(sc *lockScope, acquire func(ev lockEvent, held []string), flag func(call *ast.CallExpr, held []string)) {
	held := make(map[string]int)
	sticky := make(map[string]bool) // deferred unlock: held to end of body
	order := []string{}
	snapshot := func() []string {
		var ids []string
		for _, id := range order {
			if held[id] > 0 {
				ids = append(ids, id)
			}
		}
		return ids
	}
	for _, ev := range sc.events {
		switch ev.kind {
		case +1:
			if acquire != nil {
				acquire(ev, snapshot())
			}
			if held[ev.id] == 0 {
				order = append(order, ev.id)
			}
			held[ev.id]++
		case -1:
			// Release only the named mutex, only if actually held, and
			// never one pinned by a deferred unlock.
			if held[ev.id] > 0 && !sticky[ev.id] {
				held[ev.id]--
			}
		case 2:
			sticky[ev.id] = true
		case 0:
			flag(ev.call, snapshot())
		}
	}
	for _, inner := range sc.inner {
		replayScope(inner, acquire, flag)
	}
}

// scanLockRegions walks a function body tracking per-identity mutex hold
// regions and invokes flag for every call for which candidate returns
// true, together with the identities held at that point.
func scanLockRegions(p *Package, body *ast.BlockStmt, candidate func(*ast.CallExpr) bool, flag func(call *ast.CallExpr, held []string)) {
	replayScope(collectLockScope(p, body, candidate), nil, flag)
}

// ----- per-function lock facts for the lockorder check -----

// lockPair is one direct held→acquired observation.
type lockPair struct {
	held, acq string
	pos       token.Pos
}

// lockCall is one resolved call made with locks held.
type lockCall struct {
	held []string
	to   *Fn
	pos  token.Pos
}

// lockFacts summarizes one function's lock behavior.
type lockFacts struct {
	acquires map[string]token.Pos // identity -> first acquire site
	pairs    []lockPair
	calls    []lockCall
}

// lockFactsOf computes the lock facts for fn: which mutexes it acquires,
// which ordered held→acquired pairs its body exhibits, and which resolved
// calls it makes while holding locks.
func lockFactsOf(g *Graph, fn *Fn) *lockFacts {
	p := fn.Pkg
	facts := &lockFacts{acquires: make(map[string]token.Pos)}
	callees := func(call *ast.CallExpr) []*Fn {
		if callee := methodCallee(g.l, p.Info, call); callee != nil {
			return []*Fn{callee}
		}
		return g.ifaceImplementers(p.Info, call)
	}
	sc := collectLockScope(p, fn.Decl.Body, func(call *ast.CallExpr) bool {
		return len(callees(call)) > 0
	})
	replayScope(sc,
		func(ev lockEvent, held []string) {
			if _, seen := facts.acquires[ev.id]; !seen {
				facts.acquires[ev.id] = ev.pos
			}
			for _, h := range held {
				if h != ev.id {
					facts.pairs = append(facts.pairs, lockPair{held: h, acq: ev.id, pos: ev.pos})
				}
			}
		},
		func(call *ast.CallExpr, held []string) {
			if len(held) == 0 {
				return
			}
			for _, to := range callees(call) {
				facts.calls = append(facts.calls, lockCall{held: held, to: to, pos: call.Pos()})
			}
		})
	return facts
}
