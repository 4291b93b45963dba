package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, positioned so editors can jump to it.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Timing records how long one check took over the analyzed package set.
type Timing struct {
	Check    string
	Duration time.Duration
}

// CheckNames lists every check the analyzer runs, in execution order.
func CheckNames() []string {
	names := make([]string, len(allChecks))
	for i, c := range allChecks {
		names[i] = c.name
	}
	return names
}

// allChecks is the registry: the three invariants, each a closure over
// the shared call graph.
var allChecks = []struct {
	name string
	run  func(g *Graph, pkgs []*Package, report reportFunc)
}{
	{checkNamePurity, checkPurity},
	{checkNameHotPath, func(g *Graph, pkgs []*Package, report reportFunc) {
		for _, p := range pkgs {
			checkHotPath(g, p, report)
		}
	}},
	{checkNameLockOrder, checkLockOrder},
}

// Run executes every check against the given packages (which must have
// been produced by the same Loader, so the call-graph index is shared)
// and returns findings sorted by position.
func Run(l *Loader, pkgs []*Package) []Diagnostic {
	diags, _ := RunTimed(l, pkgs)
	return diags
}

// RunTimed is Run plus a per-check wall-clock breakdown (the graph build
// is attributed to the first check that runs).
func RunTimed(l *Loader, pkgs []*Package) ([]Diagnostic, []Timing) {
	g := BuildGraph(l)
	var diags []Diagnostic
	report := func(pos token.Pos, check, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     l.Fset.Position(pos),
			Check:   check,
			Message: fmt.Sprintf(format, args...),
		})
	}
	timings := make([]Timing, 0, len(allChecks))
	for _, c := range allChecks {
		start := time.Now()
		c.run(g, pkgs, report)
		timings = append(timings, Timing{Check: c.name, Duration: time.Since(start)})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Message < diags[j].Message
	})
	// The same node can be reached from several roots; report it once.
	out := diags[:0]
	seen := make(map[string]bool)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d:%s:%s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	return out, timings
}

type reportFunc func(pos token.Pos, check, format string, args ...any)

// pkgQualifiedCallee resolves a call of the form pkg.Func where pkg is an
// imported package (standard library or otherwise). It returns the
// package path and function name, or ok=false for anything else.
func pkgQualifiedCallee(info *types.Info, call *ast.CallExpr) (pkgPath, fn string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCallee resolves a method call to its declaration, if the method
// belongs to a module-local type the loader has seen.
func methodCallee(l *Loader, info *types.Info, call *ast.CallExpr) *Fn {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil {
			return l.FuncOf[obj]
		}
	case *ast.SelectorExpr:
		if obj := info.Uses[fun.Sel]; obj != nil {
			return l.FuncOf[obj]
		}
	}
	return nil
}

// recvTypeString renders the receiver type of a method call, e.g.
// "*repro/internal/queue.Ring", or "" when types are unresolved.
func recvTypeString(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s := info.Selections[sel]; s != nil {
		return types.TypeString(s.Recv(), nil)
	}
	if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
		return types.TypeString(tv.Type, nil)
	}
	return ""
}

// exprText renders a (small) expression for matching; only the selector
// spine is preserved.
func exprText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprText(t.X) + "." + t.Sel.Name
	case *ast.StarExpr:
		return exprText(t.X)
	case *ast.UnaryExpr:
		return exprText(t.X)
	case *ast.ParenExpr:
		return exprText(t.X)
	case *ast.CallExpr:
		return exprText(t.Fun) + "()"
	case *ast.IndexExpr:
		return exprText(t.X) + "[]"
	default:
		return "?"
	}
}

// lastComponent returns the final selector component of an expression
// ("e.mu" -> "mu").
func lastComponent(e ast.Expr) string {
	t := exprText(e)
	if i := strings.LastIndex(t, "."); i >= 0 {
		return t[i+1:]
	}
	return t
}

// looksLikeMutex reports whether an expression plausibly names a mutex
// (a field or variable whose name mentions "mu" or "lock").
func looksLikeMutex(e ast.Expr) bool {
	n := strings.ToLower(lastComponent(e))
	return strings.Contains(n, "mu") || strings.Contains(n, "lock")
}

// forLoopBodies returns the bodies of all for/range loops inside body.
func forLoopBodies(body *ast.BlockStmt) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ForStmt:
			out = append(out, st.Body)
		case *ast.RangeStmt:
			out = append(out, st.Body)
		}
		return true
	})
	return out
}
