package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The whole-program call-graph engine. Every check that reasons about
// what a function *reaches* — rather than what its body spells out —
// runs on top of this graph, and every transitive diagnostic carries a
// witness call path reconstructed by breadth-first search so a reader can
// follow the chain from root to effect.
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
//     included) produce no edges; the checks classify those directly at
//     the call site (blockingExternals, fmt/time recognition);
//   - a go statement's call produces no edge: the spawned work runs on
//     its own goroutine, outside the caller's locks and hot loops, so
//     "reaches" must not flow through it.

// Effect is a bit set of facts a function body performs directly: the
// per-message hazards the hot-path check hunts.
type Effect uint8

const (
	// EffFmt: calls into package fmt, which formats and allocates.
	EffFmt Effect = 1 << iota
	// EffTimeNow: reads the clock with time.Now.
	EffTimeNow
)

// Edge is one resolved call in the graph.
type Edge struct {
	From, To *Fn
}

// Graph is the module-wide call graph over every function the loader has
// indexed (analyzed packages and their module-local dependencies alike).
type Graph struct {
	l   *Loader
	Out map[*Fn][]Edge

	effects map[*Fn]Effect
}

// BuildGraph resolves every call site in every loaded function.
func BuildGraph(l *Loader) *Graph {
	g := &Graph{
		l:       l,
		Out:     make(map[*Fn][]Edge),
		effects: make(map[*Fn]Effect),
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
					g.addEdge(Edge{From: fn, To: impl})
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

// Effects computes (and memoizes) the direct effect bits of one function
// body. Function-literal bodies nested inside count toward the enclosing
// declaration, matching how the checks attribute closure behavior.
func (g *Graph) Effects(fn *Fn) Effect {
	if eff, ok := g.effects[fn]; ok {
		return eff
	}
	var eff Effect
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			eff |= callEffect(fn.Pkg.Info, call)
		}
		return true
	})
	g.effects[fn] = eff
	return eff
}

// callEffect classifies one call expression's own effect bit, if any.
func callEffect(info *types.Info, call *ast.CallExpr) Effect {
	pkgPath, name, ok := pkgQualifiedCallee(info, call)
	switch {
	case ok && pkgPath == "fmt":
		return EffFmt
	case ok && pkgPath == "time" && name == "Now":
		return EffTimeNow
	}
	return 0
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
// deliberately omitted so messages stay stable across unrelated edits.
func pathString(path []*Fn) string {
	names := make([]string, len(path))
	for i, fn := range path {
		names[i] = fn.Name()
	}
	return strings.Join(names, " -> ")
}
