package lint

import (
	"go/ast"
	"strings"
)

// checkLockDiscipline enforces two self-deadlock rules:
//
//   - queue: a Ring method that acquires the ring mutex must not call
//     another exported Ring method through the receiver while holding it
//     (every exported method takes the same mutex — the call would
//     deadlock, since sync.Mutex is not reentrant). The held-set is
//     tracked per lock identity, so an auxiliary lock a Ring method
//     takes does not implicate the ring mutex.
//
//   - engine: no algorithm upcall (alg.Process, notifyAlg, deliverToAlg)
//     may run with any engine lock held other than the turn token —
//     directly or through any chain of module-local helpers. Process may
//     reenter the engine through the API, which retakes engine locks; the
//     token (Engine.turnMu, matched by lock identity) is the one lock
//     whose whole purpose is to be held across Process, and nothing the
//     API reaches takes it. Transitive findings carry the witness call
//     path to the upcall.
const checkNameLockDiscipline = "lockdiscipline"

func checkLockDiscipline(g *Graph, p *Package, report reportFunc) {
	switch p.Name {
	case "queue":
		checkRingLocks(p, report)
	case "engine":
		checkEngineUpcalls(g, p, report)
	}
}

func checkRingLocks(p *Package, report reportFunc) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if base := strings.TrimPrefix(typeText(fd.Recv.List[0].Type), "*"); base != "Ring" {
				continue
			}
			recvName := ""
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				recvName = names[0].Name
			}
			if recvName == "" {
				continue
			}
			scanLockRegions(p, fd.Body,
				func(call *ast.CallExpr) bool {
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !ast.IsExported(sel.Sel.Name) {
						return false
					}
					id, ok := sel.X.(*ast.Ident)
					return ok && id.Name == recvName
				},
				func(call *ast.CallExpr, held []string) {
					if !ringMutexHeld(held) {
						return
					}
					report(call.Pos(), checkNameLockDiscipline,
						"%s calls exported Ring method %s while holding the ring mutex: sync.Mutex is not reentrant", fd.Name.Name, exprText(call.Fun))
				})
		}
	}
}

func checkEngineUpcalls(g *Graph, p *Package, report reportFunc) {
	// A call made under the engine lock is as dangerous as a direct
	// upcall if anything it transitively reaches hands control to the
	// algorithm.
	upcalls := g.Transitive(EffAlgUpcall)
	reachesUpcall := func(fn *Fn) bool { return fn != nil && upcalls[fn]&EffAlgUpcall != 0 }
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanLockRegions(p, fd.Body,
				func(call *ast.CallExpr) bool {
					if isAlgUpcall(call) {
						return true
					}
					return reachesUpcall(methodCallee(g.l, p.Info, call))
				},
				func(call *ast.CallExpr, held []string) {
					if !heldMatching(held, func(id string) bool { return !isTurnToken(id) }) {
						return
					}
					if isAlgUpcall(call) {
						report(call.Pos(), checkNameLockDiscipline,
							"%s invokes the algorithm callback %s with an engine lock held: Process may reenter the engine and deadlock", fd.Name.Name, exprText(call.Fun))
						return
					}
					callee := methodCallee(g.l, p.Info, call)
					path := g.WitnessPath(callee, func(fn *Fn) bool {
						return g.Effects(fn)&EffAlgUpcall != 0
					}, nil)
					report(call.Pos(), checkNameLockDiscipline,
						"%s calls %s with an engine lock held, and it reaches the algorithm callback (via %s): Process may reenter the engine and deadlock",
						fd.Name.Name, exprText(call.Fun), pathString(path))
				})
		}
	}
}

// isTurnToken reports whether a lock identity names the engine's turn
// token, the mutex held across every Algorithm.Process call by design.
func isTurnToken(id string) bool {
	return strings.HasPrefix(id, "engine.") && strings.HasSuffix(id, ".turnMu")
}

// isAlgUpcall recognizes the three ways engine code hands control to the
// algorithm: the direct interface call and the two internal wrappers.
func isAlgUpcall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "notifyAlg", "deliverToAlg":
		return true
	case "Process", "Attach":
		return strings.HasSuffix(exprText(sel.X), "alg")
	}
	return false
}
