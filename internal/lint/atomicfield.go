package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkAtomicField keeps every atomically accessed struct field on the
// typed atomics (atomic.Int64 and friends), which make a plain access a
// compile error. A function-style sync/atomic call on a field —
// atomic.AddInt64(&c.hits, 1) — serializes only against other atomic
// calls: nothing stops a plain read of the same field elsewhere, which
// is still a data race and, for a 64-bit counter on a 32-bit target, a
// torn one. So the call itself is the finding; there is no mixed-access
// bookkeeping left to do.
const checkNameAtomicField = "atomicfield"

func checkAtomicField(_ *Graph, pkgs []*Package, report reportFunc) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				pkgPath, op, ok := pkgQualifiedCallee(p.Info, call)
				if !ok || pkgPath != "sync/atomic" {
					return true
				}
				// The conventional target is &x.field.
				target := call.Args[0]
				if un, ok := target.(*ast.UnaryExpr); ok && un.Op == token.AND {
					target = un.X
				}
				sel, ok := target.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					report(call.Pos(), checkNameAtomicField,
						"atomic.%s on field %s: use the typed atomics (atomic.Int64 and friends), which make a plain access a compile error",
						op, fieldDisplay(s))
				}
				return true
			})
		}
	}
}

// fieldDisplay renders "pkg.Type.field" for a resolved field selection,
// matching the identity style the lock checks use.
func fieldDisplay(s *types.Selection) string {
	recv := s.Recv()
	for {
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
			continue
		}
		break
	}
	qual := func(p *types.Package) string { return p.Name() }
	return types.TypeString(recv, qual) + "." + s.Obj().Name()
}
