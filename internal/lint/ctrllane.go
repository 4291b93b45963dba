package lint

import (
	"go/ast"
	"strings"
)

// checkCtrlLane enforces the control-plane isolation contract from PR 3:
// control-class messages must reach a ring through the non-blocking push
// API (the engine must never call the blocking Ring.Push, which can wait
// on a data-full lane), and consumers must serve the control lane before
// the data lane. That control is never dropped for memory pressure needs
// no rule: nothing sheds from a ring.
//
// The check is keyed by package name (engine, queue) so it applies to
// the real tree and to fixtures alike.
const checkNameCtrlLane = "ctrllane"

func checkCtrlLane(p *Package, report reportFunc) {
	switch p.Name {
	case "engine":
		checkCtrlLaneEngine(p, report)
	case "queue":
		checkCtrlLaneQueue(p, report)
	}
}

func checkCtrlLaneEngine(p *Package, report reportFunc) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == "Push" && isRingRecv(p, call, sel) {
					report(call.Pos(), checkNameCtrlLane,
						"blocking Ring.Push in engine code: use TryPush (control parks on overflow) or PushBatch (data back-pressure)")
				}
				return true
			})
		}
	}
}

func checkCtrlLaneQueue(p *Package, report reportFunc) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPopOrder(fd, report)
		}
	}
}

// checkPopOrder enforces control-before-data service order: in any queue
// function that pops from both lanes, the first control-lane pop must
// precede the first data-lane pop in source order.
func checkPopOrder(fd *ast.FuncDecl, report reportFunc) {
	firstCtrl, firstData := ast.Node(nil), ast.Node(nil)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if name != "popLocked" && name != "pop" {
			return true
		}
		lane := ""
		for _, a := range call.Args {
			t := exprText(a)
			if strings.HasSuffix(t, "ctrl") {
				lane = "ctrl"
			} else if strings.HasSuffix(t, "data") {
				lane = "data"
			}
		}
		if lane == "" && len(call.Args) == 0 {
			// method form: l.pop(now) — classify by receiver spelling
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				t := exprText(sel.X)
				if strings.HasSuffix(t, "ctrl") {
					lane = "ctrl"
				} else if strings.HasSuffix(t, "data") {
					lane = "data"
				}
			}
		}
		switch lane {
		case "ctrl":
			if firstCtrl == nil {
				firstCtrl = call
			}
		case "data":
			if firstData == nil {
				firstData = call
			}
		}
		return true
	})
	if firstCtrl != nil && firstData != nil && firstData.Pos() < firstCtrl.Pos() {
		report(firstData.Pos(), checkNameCtrlLane,
			"%s serves the data lane before the control lane: control must bypass queued data", fd.Name.Name)
	}
}

// isRingRecv reports whether a method call's receiver is a queue.Ring,
// by resolved type when available and by field spelling otherwise.
func isRingRecv(p *Package, call *ast.CallExpr, sel *ast.SelectorExpr) bool {
	if rt := recvTypeString(p.Info, call); rt != "" {
		return strings.HasSuffix(rt, "queue.Ring") || strings.HasSuffix(rt, "*Ring")
	}
	return strings.Contains(strings.ToLower(lastComponent(sel.X)), "ring")
}
