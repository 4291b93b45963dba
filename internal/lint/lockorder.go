package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// checkLockOrder builds the module-wide lock-order graph and reports
// every cycle as a potential deadlock. A node is a lock identity
// ("pkg.Type.field"); an edge A -> B means some code path acquires B
// while holding A — either directly in one body, or by calling (with A
// held) a function that transitively acquires B. Two goroutines running
// the two sides of a cycle in opposite order deadlock, so any cycle is a
// bug in waiting even if today's schedules never interleave that way.
//
// Self-edges (re-acquiring the mutex already held) deadlock the first
// time they run, so the tests own them and they are excluded here; the
// minimum cycle this check reports is A -> B -> A. Each edge in a
// reported cycle carries its witness: the function holding the first
// lock and, for transitive edges, the call path to the acquire site.
const checkNameLockOrder = "lockorder"

// orderEdge is one held->acquired observation with its witness.
type orderEdge struct {
	from, to string
	fn       *Fn // function whose body holds `from`
	pos      token.Pos
	via      []*Fn // call path from fn's callee to the acquirer (nil for direct)
}

func (e orderEdge) witness() string {
	if len(e.via) == 0 {
		return e.fn.Name()
	}
	return pathString(append([]*Fn{e.fn}, e.via...))
}

func checkLockOrder(g *Graph, pkgs []*Package, report reportFunc) {
	reportLockCycles(lockOrderEdges(g, pkgs), report)
}

// lockOrderEdges collects the held->acquired edges rooted in pkgs, one per
// (from, to) pair, keyed "from\x00to".
func lockOrderEdges(g *Graph, pkgs []*Package) map[string]orderEdge {
	requested := make(map[*Package]bool, len(pkgs))
	for _, p := range pkgs {
		requested[p] = true
	}

	// Lock facts for every loaded function: dependency packages
	// contribute acquire sets even when only the analyzed packages
	// contribute edges.
	facts := make(map[*Fn]*lockFacts, len(g.l.Fns))
	for _, fn := range g.l.Fns {
		facts[fn] = lockFactsOf(g, fn)
	}

	// Transitive acquire sets: which identities can each function end up
	// locking, directly or through anything it calls.
	acq := make(map[*Fn]map[string]bool, len(g.l.Fns))
	for _, fn := range g.l.Fns {
		set := make(map[string]bool, len(facts[fn].acquires))
		for id := range facts[fn].acquires {
			set[id] = true
		}
		acq[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.l.Fns {
			for _, e := range g.Out[fn] {
				for id := range acq[e.To] {
					if !acq[fn][id] {
						acq[fn][id] = true
						changed = true
					}
				}
			}
		}
	}

	// Edges, rooted in the analyzed packages. One edge per (from, to)
	// pair — the first witness found (load order, so deterministic) wins.
	edges := make(map[string]orderEdge)
	addEdge := func(e orderEdge) {
		if e.from == e.to {
			return
		}
		key := e.from + "\x00" + e.to
		if _, ok := edges[key]; !ok {
			edges[key] = e
		}
	}
	for _, fn := range g.l.Fns {
		if !requested[fn.Pkg] {
			continue
		}
		f := facts[fn]
		for _, pair := range f.pairs {
			addEdge(orderEdge{from: pair.held, to: pair.acq, fn: fn, pos: pair.pos})
		}
		for _, call := range f.calls {
			targets := make([]string, 0, len(acq[call.to]))
			for id := range acq[call.to] {
				targets = append(targets, id)
			}
			sort.Strings(targets)
			for _, id := range targets {
				path := g.WitnessPath(call.to, func(t *Fn) bool {
					_, ok := facts[t].acquires[id]
					return ok
				}, nil)
				if path == nil {
					continue
				}
				for _, held := range call.held {
					addEdge(orderEdge{from: held, to: id, fn: fn, pos: call.pos, via: path})
				}
			}
		}
	}

	return edges
}

// reportLockCycles reports every elementary cycle among edges.
func reportLockCycles(edges map[string]orderEdge, report reportFunc) {
	// Adjacency, deterministically ordered.
	adj := make(map[string][]orderEdge)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}
	var nodes []string
	for from := range adj {
		nodes = append(nodes, from)
	}
	sort.Strings(nodes)
	for _, from := range nodes {
		out := adj[from]
		sort.Slice(out, func(i, j int) bool { return out[i].to < out[j].to })
	}

	// Enumerate elementary cycles, each discovered exactly once: a cycle
	// is found from its lexicographically smallest node, and every other
	// node on the path must be strictly larger. Cycle length is bounded —
	// a deadlock witness with more than a handful of locks adds nothing.
	const maxCycleLen = 6
	for _, start := range nodes {
		var path []orderEdge
		on := map[string]bool{start: true}
		var dfs func(cur string)
		dfs = func(cur string) {
			for _, e := range adj[cur] {
				if e.to == start {
					if len(path) >= 1 { // with e, cycle has >= 2 edges
						reportCycle(append(append([]orderEdge(nil), path...), e), report)
					}
					continue
				}
				if e.to < start || on[e.to] || len(path)+1 >= maxCycleLen {
					continue
				}
				on[e.to] = true
				path = append(path, e)
				dfs(e.to)
				path = path[:len(path)-1]
				delete(on, e.to)
			}
		}
		dfs(start)
	}
}

// reportCycle renders one cycle at the acquire site of its first edge
// (the edge leaving the lexicographically smallest identity).
func reportCycle(cycle []orderEdge, report reportFunc) {
	ids := make([]string, 0, len(cycle)+1)
	ids = append(ids, cycle[0].from)
	parts := make([]string, 0, len(cycle))
	for _, e := range cycle {
		ids = append(ids, e.to)
		parts = append(parts, fmt.Sprintf("%s held while acquiring %s in %s", e.from, e.to, e.witness()))
	}
	report(cycle[0].pos, checkNameLockOrder,
		"lock-order cycle %s: potential deadlock (%s)",
		strings.Join(ids, " -> "), strings.Join(parts, "; "))
}
