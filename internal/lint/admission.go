package lint

import (
	"go/ast"
	"strings"
)

// checkAdmission enforces the connection-storm contract of the admission
// layer: accept-path code — listener loops, pre-handshake shedding, and
// the handshake itself — runs while the node may be under a dial flood,
// so every admission decision must stay O(1) and non-blocking. Two
// rules, applied to the admission package (the door every listener
// stands behind) and to its owners — engine, observer, proxy (and
// fixtures):
//
//   - no accept-path function may block on a ring: a Busy refusal or a
//     hello read must never wait behind a data-full lane;
//   - no accept-path function may perform connection I/O while holding
//     a mutex: a stalled remote extends the critical section
//     indefinitely, letting one mute dialer freeze admission (and, for
//     the engine lock, the whole switch). The rule is interprocedural:
//     a helper called under the lock is flagged if anything it reaches
//     in the module performs connection I/O, with the witness path.
//
// Accept-path functions are recognized by the documented naming
// convention: any function whose name mentions accept or handshake, plus
// the door's refusal writer (Refuse), the owners' hand-off handlers
// (serveConn) and the dialer's wait for the admission reply
// (awaitAdmission).
// Datagram receive paths (names mentioning dgramread) are held to the
// same contract: the shared packet endpoint is the accept loop of the
// datagram plane, and one full ring must never stop it draining.
const checkNameAdmission = "admission"

var admissionHelperNames = map[string]bool{
	"Refuse":         true,
	"serveConn":      true,
	"awaitAdmission": true,
}

var admissionPkgs = map[string]bool{"admission": true, "engine": true, "observer": true, "proxy": true}

func isAdmissionPath(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "accept") ||
		strings.Contains(lower, "handshake") ||
		strings.Contains(lower, "dgramread") ||
		admissionHelperNames[name]
}

var admissionBlockingRing = map[string]bool{
	"Push":      true,
	"Pop":       true,
	"PushBatch": true,
	"PopBatch":  true,
}

func checkAdmission(g *Graph, p *Package, report reportFunc) {
	if !admissionPkgs[p.Name] {
		return
	}
	connIO := g.Transitive(EffConnIO)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isAdmissionPath(fd.Name.Name) {
				continue
			}
			fn := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if admissionBlockingRing[sel.Sel.Name] && isRingRecv(p, call, sel) {
					report(call.Pos(), checkNameAdmission,
						"accept path %s blocks on Ring.%s: admission must shed, never wait on a data lane",
						fn, sel.Sel.Name)
				}
				return true
			})
			scanLockRegions(p, fd.Body,
				func(call *ast.CallExpr) bool {
					if isConnIO(p, call) {
						return true
					}
					callee := methodCallee(g.l, p.Info, call)
					return callee != nil && connIO[callee]&EffConnIO != 0
				},
				func(call *ast.CallExpr, held []string) {
					if !heldAny(held) {
						return
					}
					if isConnIO(p, call) {
						report(call.Pos(), checkNameAdmission,
							"accept path %s performs connection I/O with a lock held: one stalled dialer would freeze admission",
							fn)
						return
					}
					callee := methodCallee(g.l, p.Info, call)
					path := g.WitnessPath(callee, func(f *Fn) bool {
						return g.Effects(f)&EffConnIO != 0
					}, nil)
					report(call.Pos(), checkNameAdmission,
						"accept path %s calls %s with a lock held, and it reaches connection I/O (via %s): one stalled dialer would freeze admission",
						fn, exprText(call.Fun), pathString(path))
				})
		}
	}
}

// isConnIO recognizes frame or byte I/O against a network connection:
// the message package's Read/Write (whose first argument is always a
// conn), io.ReadFull, and Read/Write method calls on a receiver whose
// name mentions conn.
func isConnIO(p *Package, call *ast.CallExpr) bool {
	if pkg, fn, ok := pkgQualifiedCallee(p.Info, call); ok {
		if pkg == "io" && fn == "ReadFull" {
			return true
		}
		return (fn == "Read" || fn == "Write") && strings.HasSuffix(pkg, "/message")
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Read" && sel.Sel.Name != "Write" {
		return false
	}
	return strings.Contains(strings.ToLower(lastComponent(sel.X)), "conn")
}
