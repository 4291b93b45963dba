package lint

import (
	"go/ast"
	"strings"
)

// checkHotPath keeps allocation- and syscall-heavy constructs out of the
// per-message paths. The hot set is the engine's switch loop, the sender,
// receiver and datagram-reader loops and the per-message loop of the
// quantum (switchBatch) — their for-loop bodies; setup and teardown outside
// the loop are cold — and the whole of Send and flushLink, which every
// switched message passes through, and of writeInline, which runs once per
// link per flush and reaches each framing's tryWrite through an interface:
//
//   - fmt.* formats allocate and reflect per call;
//   - time.Now is a syscall-class call — the loops batch timestamps and
//     use the monotonic deadline helpers instead;
//   - passing *message.Msg to a variadic fmt ...any boxes the pointer
//     into an interface, allocating per message.
//
// The rules apply interprocedurally within the engine package: a hot
// region may not launder a fmt call through a helper, nor through a
// package-local interface, which is as hot as every implementation of it.
// The walk stays inside the package — the ring and transport layers the
// loops call into are measured by their own benchmarks, and descending
// into them would indict every error path they keep off the fast path.
//
// The hot set is matched by name, so a name that matches nothing in the
// real engine package is reported: a rename or a fork must not silently
// drop a function's coverage.
const checkNameHotPath = "hotpath"

// hotSet names the hot functions; true marks one hot from its first
// statement, false one that is hot inside its for loops only.
var hotSet = map[string]bool{
	"Send": true, "flushLink": true,
	"switchOnce": false, "runSender": false, "runReceiver": false, "runDgramReader": false,
	"switchBatch": false, "writeInline": true,
}

func checkHotPath(g *Graph, p *Package, report reportFunc) {
	if p.Name != "engine" {
		return
	}
	resolved := make(map[string]bool)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			wholeBody, hot := hotSet[name]
			if !hot {
				continue
			}
			resolved[name] = true
			regions := forLoopBodies(fd.Body)
			if wholeBody {
				regions = []*ast.BlockStmt{fd.Body}
			}
			for _, region := range regions {
				scanHotRegion(g, p, name, region, report)
			}
		}
	}
	// Fixture packages seed one or two hot functions each; the real engine
	// must declare them all.
	for name := range hotSet {
		if !resolved[name] && strings.HasSuffix(p.Path, "/internal/engine") {
			report(p.Files[0].Package, checkNameHotPath,
				"hot-set function %s matches nothing in package engine: renamed or forked? update the hot set", name)
		}
	}
}

func scanHotRegion(g *Graph, p *Package, fn string, region *ast.BlockStmt, report reportFunc) {
	samePkg := func(e Edge) bool { return e.To.Pkg == p }
	isHot := func(f *Fn) bool { return g.Effects(f) != 0 }
	ast.Inspect(region, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		eff := callEffect(p.Info, call)
		switch eff {
		case EffFmt:
			report(call.Pos(), checkNameHotPath,
				"%s on the hot path in %s: formatting allocates per message", exprText(call.Fun), fn)
		case EffTimeNow:
			report(call.Pos(), checkNameHotPath,
				"time.Now on the hot path in %s: batch timestamps or use the monotonic deadline helpers", fn)
		}
		// A helper called from the hot region is as hot as the region:
		// flag it if anything it reaches inside the package formats or
		// reads the clock. Detection and witness use the same
		// same-package walk, so every finding has a concrete path.
		var callees []*Fn
		if callee := methodCallee(g.l, p.Info, call); callee != nil {
			callees = []*Fn{callee}
		} else {
			callees = g.ifaceImplementers(p.Info, call)
		}
		for _, callee := range callees {
			if callee.Pkg != p {
				continue
			}
			if path := g.WitnessPath(callee, isHot, samePkg); path != nil {
				report(call.Pos(), checkNameHotPath,
					"%s on the hot path in %s reaches %s (via %s): keep formatting and clock reads out of the per-message loop",
					exprText(call.Fun), fn, describeHotEffect(g.Effects(path[len(path)-1])), pathString(path))
			}
		}
		if eff != EffFmt {
			return true
		}
		// fmt's ...any parameters box a *message.Msg argument.
		for _, arg := range call.Args {
			if tv, ok := p.Info.Types[arg]; ok && tv.Type != nil && strings.HasSuffix(tv.Type.String(), "message.Msg") {
				report(arg.Pos(), checkNameHotPath,
					"*message.Msg boxed into ...any in %s: interface conversion allocates per message", fn)
			}
		}
		return true
	})
}

// describeHotEffect renders the dominant hot-path hazard bit.
func describeHotEffect(eff Effect) string {
	if eff&EffFmt != 0 {
		return "a fmt call"
	}
	return "time.Now"
}
