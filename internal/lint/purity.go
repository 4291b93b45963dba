package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkPurity enforces the paper's single-threaded algorithm guarantee:
// Algorithm.Process runs under the engine's turn token and must never
// block or spawn concurrency. Interprocedurally over the call graph from every
// Process implementation — direct calls and conservative interface
// fan-outs alike — the check forbids goroutine spawns, channel
// operations (send, receive, select, range-over-channel), time.Sleep,
// network dial/listen calls, blocking waits on unresolved receivers, and
// engine.API calls made while a mutex is held (a lock held across a
// reentrant upcall is a deadlock in waiting). Every finding is reported
// at the offending site with the witness call path from Process.
//
// Traversal stops at engine.API interface methods naturally (interfaces
// have no bodies) and is prevented from descending into the runtime-side
// packages, whose internal concurrency is their own business.
const checkNamePurity = "algpurity"

// runtimePkgNames are packages the purity walk must not descend into:
// they ARE the concurrent runtime. An algorithm reaching one directly
// (rather than through the engine.API interface) is itself suspect, but
// flagging every goroutine inside the engine would drown the signal.
var runtimePkgNames = map[string]bool{
	"engine": true, "queue": true, "vnet": true, "bandwidth": true,
	"chaos": true, "simnet": true, "flowsim": true, "observer": true,
	"proxy": true, "metrics": true, "experiments": true,
}

func checkPurity(g *Graph, pkgs []*Package, report reportFunc) {
	requested := make(map[*Package]bool, len(pkgs))
	for _, p := range pkgs {
		requested[p] = true
	}
	follow := func(e Edge) bool { return !runtimePkgNames[e.To.Pkg.Name] }
	visited := make(map[*Fn]bool)
	for _, fn := range g.l.Fns {
		if !requested[fn.Pkg] || !isProcessImpl(fn.Decl) {
			continue
		}
		root := fn.Name()
		for _, r := range g.ReachableFrom(fn, follow) {
			// The same helper can be reached from several Process roots;
			// report its violations once, for the first root that gets there.
			if visited[r.Fn] {
				continue
			}
			visited[r.Fn] = true
			scanPureBody(g, r.Fn, root, r.Path, report)
		}
	}
}

// isProcessImpl recognizes an Algorithm.Process implementation by shape:
// a method named Process taking a single *...Msg parameter and returning
// a single Verdict.
func isProcessImpl(fd *ast.FuncDecl) bool {
	if fd.Name.Name != "Process" || fd.Recv == nil || fd.Body == nil {
		return false
	}
	ft := fd.Type
	if ft.Params == nil || len(ft.Params.List) != 1 || ft.Results == nil || len(ft.Results.List) != 1 {
		return false
	}
	return strings.HasSuffix(typeText(ft.Params.List[0].Type), "Msg") &&
		strings.HasSuffix(typeText(ft.Results.List[0].Type), "Verdict")
}

// blockingExternals maps package path -> forbidden function prefixes.
var blockingExternals = map[string][]string{
	"time": {"Sleep"},
	"net":  {"Dial", "Listen"},
	"os":   {"Pipe"},
}

// scanPureBody reports purity violations in fn's body. path is the
// witness call chain from the Process root (root first, fn last).
func scanPureBody(g *Graph, fn *Fn, root string, path []*Fn, report reportFunc) {
	info := fn.Pkg.Info
	where := ""
	if len(path) > 1 {
		where = " via " + pathString(path[1:])
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			report(st.Pos(), checkNamePurity,
				"goroutine spawn reachable from %s%s: Process must stay within the engine's turn", root, where)
		case *ast.SendStmt:
			report(st.Pos(), checkNamePurity,
				"channel send reachable from %s%s: Process must never block", root, where)
		case *ast.UnaryExpr:
			if st.Op.String() == "<-" {
				report(st.Pos(), checkNamePurity,
					"channel receive reachable from %s%s: Process must never block", root, where)
			}
		case *ast.SelectStmt:
			report(st.Pos(), checkNamePurity,
				"select reachable from %s%s: Process must never block", root, where)
		case *ast.RangeStmt:
			if tv, ok := info.Types[st.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(st.Pos(), checkNamePurity,
						"range over channel reachable from %s%s: Process must never block", root, where)
				}
			}
		case *ast.CallExpr:
			if pkgPath, name, ok := pkgQualifiedCallee(info, st); ok {
				for _, prefix := range blockingExternals[pkgPath] {
					if strings.HasPrefix(name, prefix) {
						report(st.Pos(), checkNamePurity,
							"%s.%s reachable from %s%s: Process must never block or touch the network", pkgPath, name, root, where)
					}
				}
				return true
			}
			if methodCallee(g.l, info, st) != nil || len(g.ifaceImplementers(info, st)) > 0 {
				return true // resolved: the graph walk visits the callee itself
			}
			// Unresolved method call (receiver type outside the module):
			// a bare .Wait() is a blocking sync.WaitGroup/sync.Cond wait.
			if sel, isSel := st.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Wait" {
				report(st.Pos(), checkNamePurity,
					"blocking Wait reachable from %s%s: Process must never block", root, where)
			}
		}
		return true
	})
	// Second pass: engine.API upcalls made while a mutex is held. The
	// engine may call back into the algorithm; holding an algorithm lock
	// across the upcall inverts the lock order and can deadlock.
	scanLockRegions(fn.Pkg, fn.Decl.Body,
		func(call *ast.CallExpr) bool { return isAPICall(info, call) },
		func(call *ast.CallExpr, held []string) {
			if len(held) == 0 {
				return
			}
			report(call.Pos(), checkNamePurity,
				"engine.API call %s while holding a lock, reachable from %s%s: release before calling the engine", exprText(call.Fun), root, where)
		})
}

// isAPICall reports whether call invokes a method through the engine.API
// interface, by resolved receiver type when available and by the
// conventional field spelling (x.API.Method) otherwise.
func isAPICall(info *types.Info, call *ast.CallExpr) bool {
	if rt := recvTypeString(info, call); strings.HasSuffix(rt, "engine.API") {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return strings.HasSuffix(exprText(sel.X), ".API") || exprText(sel.X) == "API"
}
