package lint

import (
	"go/ast"
	"go/token"
)

// checkGoLifecycle enforces goroutine accountability in the packages
// that own long-lived concurrency — engine, observer, proxy, and
// admission: every go statement must be tied to the owner's lifecycle,
// so Stop can prove the goroutine is gone rather than hope. A spawn is
// accepted if either
//
//   - a WaitGroup Add precedes it in the spawning function (the spawned
//     body is then expected to Done — the repo's e.wg.Add(1); go e.run()
//     idiom), or
//   - the spawned target itself is provably lifecycle-tied: it (or
//     anything it transitively calls) signals a WaitGroup, waits on one
//     (it *is* the reconciliation, like go e.Stop()), or watches a
//     stop-class channel (stop/done/quit names).
//
// Anything else — including a spawn whose target the loader cannot
// resolve — is flagged: an unaccounted goroutine outlives Stop, keeps
// its captures alive, and races the next test's engine instance.
const checkNameGoLifecycle = "golifecycle"

// lifecyclePkgs are the packages that may own long-lived goroutines and
// therefore must account for every one of them.
var lifecyclePkgs = map[string]bool{"engine": true, "observer": true, "proxy": true, "admission": true}

func checkGoLifecycle(g *Graph, pkgs []*Package, report reportFunc) {
	tied := g.Transitive(effLifecycleTied)
	for _, p := range pkgs {
		if !lifecyclePkgs[p.Name] {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkSpawns(g, p, fd, tied, report)
			}
		}
	}
}

func checkSpawns(g *Graph, p *Package, fd *ast.FuncDecl, tied map[*Fn]Effect, report reportFunc) {
	addPositions := wgAddPositions(fd.Body)
	fn := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		// Evidence 1: a wg.Add earlier in this function covers the spawn.
		for _, pos := range addPositions {
			if pos < st.Pos() {
				return true
			}
		}
		// Evidence 2: the spawned target is itself lifecycle-tied.
		if lit, isLit := st.Call.Fun.(*ast.FuncLit); isLit {
			if litLifecycleTied(g, p, lit, tied) {
				return true
			}
			report(st.Pos(), checkNameGoLifecycle,
				"goroutine literal in %s is not tied to the lifecycle: no wg.Add before the spawn and the body neither signals a WaitGroup nor watches a stop channel", fn)
			return true
		}
		if callee := methodCallee(g.l, p.Info, st.Call); callee != nil {
			if tied[callee]&effLifecycleTied != 0 {
				return true
			}
			report(st.Pos(), checkNameGoLifecycle,
				"go %s in %s is not tied to the lifecycle (spawn path %s): no wg.Add before the spawn, and the target neither signals a WaitGroup nor watches a stop channel", exprText(st.Call.Fun), fn, callee.Name())
			return true
		}
		if impls := g.ifaceImplementers(p.Info, st.Call); len(impls) > 0 {
			for _, impl := range impls {
				if tied[impl]&effLifecycleTied == 0 {
					report(st.Pos(), checkNameGoLifecycle,
						"go %s in %s is not tied to the lifecycle (spawn path %s): no wg.Add before the spawn, and the implementer neither signals a WaitGroup nor watches a stop channel", exprText(st.Call.Fun), fn, impl.Name())
				}
			}
			return true
		}
		report(st.Pos(), checkNameGoLifecycle,
			"go %s in %s spawns an unresolved target with no wg.Add before it: tie the goroutine to a WaitGroup or stop channel", exprText(st.Call.Fun), fn)
		return true
	})
}

// wgAddPositions collects the positions of WaitGroup Add calls in a body.
func wgAddPositions(body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && wgName(sel.X) {
			out = append(out, call.Pos())
		}
		return true
	})
	return out
}

// litLifecycleTied reports whether a goroutine literal's body carries the
// lifecycle evidence directly (a stop-channel receive, a wg.Done or
// wg.Wait) or reaches it through a resolved call.
func litLifecycleTied(g *Graph, p *Package, lit *ast.FuncLit, tied map[*Fn]Effect) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch st := n.(type) {
		case *ast.UnaryExpr:
			if st.Op.String() == "<-" && stopChanName(st.X) {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := st.Fun.(*ast.SelectorExpr); ok && wgName(sel.X) &&
				(sel.Sel.Name == "Done" || sel.Sel.Name == "Wait") {
				found = true
				return false
			}
			if callee := methodCallee(g.l, p.Info, st); callee != nil && tied[callee]&effLifecycleTied != 0 {
				found = true
			}
		}
		return true
	})
	return found
}
