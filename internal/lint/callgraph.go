package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The whole-program call-graph engine. Every check that reasons about
// what a function *reaches* — rather than what its body spells out —
// runs on top of this graph: per-function effect summaries are unioned
// over the module-local call graph to a fixpoint, and every transitive
// diagnostic carries a witness call path reconstructed by breadth-first
// search so a reader can follow the chain from root to effect.
//
// Resolution is conservative and stdlib-only:
//
//   - a direct call or method call on a concrete module-local type
//     resolves to its declaration (via go/types object identity);
//   - a call through a module-local interface fans out to every
//     module-local type that implements the interface and declares the
//     method — the analysis assumes any implementer may be behind the
//     value;
//   - calls into packages outside the module (the standard library
//     included) produce no edges; the per-check external tables
//     (blockingExternals, fmt/time/atomic recognition) classify those
//     directly at the call site;
//   - a go statement's call produces no edge: the spawned work runs on
//     its own goroutine, outside the caller's locks and hot loops, so
//     "reaches" must not flow through it. Spawn accountability is the
//     golifecycle check's job, which resolves spawn targets itself.

// Effect is a bit set of facts a function body performs directly.
// Transitive closures over the graph union these bits.
type Effect uint32

const (
	// EffGoSpawn: contains a go statement.
	EffGoSpawn Effect = 1 << iota
	// EffChanSend / EffChanRecv / EffSelect / EffChanRange: channel
	// operations, each a potential block.
	EffChanSend
	EffChanRecv
	EffSelect
	EffChanRange
	// EffBlockCall: calls a known-blocking external (time.Sleep,
	// net.Dial*/Listen*, os.Pipe).
	EffBlockCall
	// EffBareWait: calls .Wait() on an unresolved receiver — the shape
	// of a sync.WaitGroup or sync.Cond wait.
	EffBareWait
	// EffConnIO: performs frame or byte I/O against a network conn.
	EffConnIO
	// EffFmt / EffTimeNow / EffLogf: per-message allocation hazards the
	// hot-path check hunts.
	EffFmt
	EffTimeNow
	EffLogf
	// EffAlgUpcall: hands control to the algorithm (Process/notifyAlg/
	// deliverToAlg) — must never run under an engine lock.
	EffAlgUpcall
	// EffWGDone / EffWGWait: touches a WaitGroup by the repo's naming
	// convention (a receiver whose name mentions "wg") — the positive
	// evidence the golifecycle check accepts.
	EffWGDone
	EffWGWait
	// EffStopChan: receives from (or selects on) a stop-class channel —
	// a name mentioning stop/done/quit/halt/close.
	EffStopChan
)

// effPurityBlocking is the union of effects Algorithm.Process may never
// reach: anything that blocks the engine goroutine.
const effPurityBlocking = EffChanSend | EffChanRecv | EffSelect | EffChanRange |
	EffBlockCall | EffBareWait

// effLifecycleTied is the positive evidence that a spawned goroutine is
// reconciled at Stop: it signals a WaitGroup, waits on one (it *is* the
// reconciliation), or watches a stop channel.
const effLifecycleTied = EffWGDone | EffWGWait | EffStopChan

// Edge is one resolved call in the graph.
type Edge struct {
	From  *Fn
	To    *Fn
	Iface bool // resolved conservatively through an interface fan-out
}

// Graph is the module-wide call graph over every function the loader has
// indexed (analyzed packages and their module-local dependencies alike).
type Graph struct {
	l   *Loader
	Out map[*Fn][]Edge

	effects map[*Fn]Effect
	trans   map[Effect]map[*Fn]Effect // memoized transitive closures, keyed by mask
}

// BuildGraph resolves every call site in every loaded function.
func BuildGraph(l *Loader) *Graph {
	g := &Graph{
		l:       l,
		Out:     make(map[*Fn][]Edge),
		effects: make(map[*Fn]Effect),
		trans:   make(map[Effect]map[*Fn]Effect),
	}
	for _, fn := range l.Fns {
		seen := make(map[*Fn]bool)
		info := fn.Pkg.Info
		spawned := spawnedCalls(fn.Decl.Body)
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if spawned[call] {
				return true
			}
			if callee := methodCallee(l, info, call); callee != nil {
				if !seen[callee] {
					seen[callee] = true
					g.addEdge(Edge{From: fn, To: callee})
				}
				return true
			}
			for _, impl := range g.ifaceImplementers(info, call) {
				if !seen[impl] {
					seen[impl] = true
					g.addEdge(Edge{From: fn, To: impl, Iface: true})
				}
			}
			return true
		})
	}
	return g
}

func (g *Graph) addEdge(e Edge) {
	g.Out[e.From] = append(g.Out[e.From], e)
}

// spawnedCalls collects the immediate call expressions of go statements
// in body — the calls that run on a new goroutine rather than inline.
func spawnedCalls(body ast.Node) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if st, ok := n.(*ast.GoStmt); ok {
			out[st.Call] = true
		}
		return true
	})
	return out
}

// ifaceImplementers resolves a call through a module-local interface to
// every module-local method that implements it: the conservative fan-out.
func (g *Graph) ifaceImplementers(info *types.Info, call *ast.CallExpr) []*Fn {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var impls []*Fn
	for _, cand := range g.l.MethodsByName[sel.Sel.Name] {
		candObj, ok := cand.Pkg.Info.Defs[cand.Decl.Name].(*types.Func)
		if !ok {
			continue
		}
		candSig, ok := candObj.Type().(*types.Signature)
		if !ok || candSig.Recv() == nil {
			continue
		}
		rt := candSig.Recv().Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
			impls = append(impls, cand)
		}
	}
	return impls
}

// stopChanName reports whether a channel expression is a stop-class
// channel by the repo's naming convention.
func stopChanName(e ast.Expr) bool {
	n := strings.ToLower(lastComponent(e))
	for _, s := range []string{"stop", "done", "quit", "halt", "clos"} {
		if strings.Contains(n, s) {
			return true
		}
	}
	return false
}

// wgName reports whether a receiver expression names a WaitGroup by the
// repo's convention (the engine's e.wg, the observer's o.wg, ...).
func wgName(e ast.Expr) bool {
	n := strings.ToLower(lastComponent(e))
	return strings.Contains(n, "wg") || strings.Contains(n, "waitgroup")
}

// Effects computes (and memoizes) the direct effect bits of one function
// body. Function-literal bodies nested inside count toward the enclosing
// declaration, matching how the checks attribute closure behavior.
func (g *Graph) Effects(fn *Fn) Effect {
	if eff, ok := g.effects[fn]; ok {
		return eff
	}
	var eff Effect
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			eff |= EffGoSpawn
		case *ast.SendStmt:
			eff |= EffChanSend
		case *ast.SelectStmt:
			eff |= EffSelect
		case *ast.UnaryExpr:
			if st.Op.String() == "<-" {
				eff |= EffChanRecv
				if stopChanName(st.X) {
					eff |= EffStopChan
				}
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[st.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					eff |= EffChanRange
				}
			}
		case *ast.CallExpr:
			eff |= g.callEffects(fn.Pkg, st)
		}
		return true
	})
	g.effects[fn] = eff
	return eff
}

// callEffects classifies one call expression's direct effect bits.
func (g *Graph) callEffects(p *Package, call *ast.CallExpr) Effect {
	var eff Effect
	if pkgPath, name, ok := pkgQualifiedCallee(p.Info, call); ok {
		for _, prefix := range blockingExternals[pkgPath] {
			if strings.HasPrefix(name, prefix) {
				eff |= EffBlockCall
			}
		}
		switch {
		case pkgPath == "fmt":
			eff |= EffFmt
		case pkgPath == "time" && name == "Now":
			eff |= EffTimeNow
		}
	}
	if isConnIO(p, call) {
		eff |= EffConnIO
	}
	if isAlgUpcall(call) {
		eff |= EffAlgUpcall
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "logf":
			eff |= EffLogf
		case "Wait":
			if wgName(sel.X) {
				eff |= EffWGWait
			}
			if obj := p.Info.Uses[sel.Sel]; obj == nil {
				eff |= EffBareWait
			}
		case "Done":
			if wgName(sel.X) {
				eff |= EffWGDone
			}
		}
	} else if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "logf" {
		eff |= EffLogf
	}
	return eff
}

// Transitive computes, for every function, the union of its own and all
// reachable functions' direct effects restricted to mask, following
// every graph edge. The closure is memoized per mask.
func (g *Graph) Transitive(mask Effect) map[*Fn]Effect {
	if m, ok := g.trans[mask]; ok {
		return m
	}
	m := make(map[*Fn]Effect, len(g.l.Fns))
	for _, fn := range g.l.Fns {
		m[fn] = g.Effects(fn) & mask
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.l.Fns {
			eff := m[fn]
			for _, e := range g.Out[fn] {
				if add := m[e.To] &^ eff; add != 0 {
					eff |= add
					changed = true
				}
			}
			m[fn] = eff
		}
	}
	g.trans[mask] = m
	return m
}

// Reached is one function discovered by a graph walk, with the call path
// (root first, the function itself last) that discovered it.
type Reached struct {
	Fn   *Fn
	Path []*Fn
}

// ReachableFrom walks the graph breadth-first from root, following only
// edges for which follow returns true, and returns every function reached
// (root included) with a shortest witness path. Deterministic: edges are
// traversed in insertion (source) order.
func (g *Graph) ReachableFrom(root *Fn, follow func(Edge) bool) []Reached {
	visited := map[*Fn]bool{root: true}
	queue := []Reached{{Fn: root, Path: []*Fn{root}}}
	var out []Reached
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, e := range g.Out[cur.Fn] {
			if visited[e.To] || (follow != nil && !follow(e)) {
				continue
			}
			visited[e.To] = true
			path := append(append([]*Fn(nil), cur.Path...), e.To)
			queue = append(queue, Reached{Fn: e.To, Path: path})
		}
	}
	return out
}

// WitnessPath returns a shortest call path (start first) from start to a
// function satisfying pred, following only edges allowed by follow, or
// nil when none is reachable. Used to render the witness chain for a
// transitive effect.
func (g *Graph) WitnessPath(start *Fn, pred func(*Fn) bool, follow func(Edge) bool) []*Fn {
	if pred(start) {
		return []*Fn{start}
	}
	visited := map[*Fn]bool{start: true}
	queue := []Reached{{Fn: start, Path: []*Fn{start}}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.Out[cur.Fn] {
			if visited[e.To] || (follow != nil && !follow(e)) {
				continue
			}
			visited[e.To] = true
			path := append(append([]*Fn(nil), cur.Path...), e.To)
			if pred(e.To) {
				return path
			}
			queue = append(queue, Reached{Fn: e.To, Path: path})
		}
	}
	return nil
}

// pathString renders a witness call path for a diagnostic. Positions are
// deliberately omitted so messages stay stable across unrelated edits
// (the baseline matches on message text).
func pathString(path []*Fn) string {
	names := make([]string, len(path))
	for i, fn := range path {
		names[i] = fn.Name()
	}
	return strings.Join(names, " -> ")
}
