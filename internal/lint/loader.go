// Package lint implements ioverlayvet, the repo-specific static analyzer
// that machine-checks the middleware invariants the engine's correctness
// rests on and no test catches a violation of: the single-threaded
// algorithm guarantee (Algorithm.Process never blocks and never spawns
// concurrency), hot-path allocation hygiene, and an acyclic lock order.
//
// The analyzer is pure standard library — go/ast, go/parser and go/types
// only, no golang.org/x/tools — so the module stays dependency-free.
// Cross-package resolution works by type-checking module-local packages
// from source, in dependency order, while imports from outside the module
// are replaced with empty placeholder packages; go/types is run in its
// error-tolerant mode, so identifiers rooted in the standard library
// simply stay unresolved and the checks fall back to syntax for them.
package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and (partially) type-checked package.
type Package struct {
	Dir   string
	Path  string // module-rooted import path
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Fn identifies one function or method declaration in a loaded package.
type Fn struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// Name renders the function for diagnostics, receiver included.
func (f *Fn) Name() string {
	if f.Decl.Recv != nil && len(f.Decl.Recv.List) > 0 {
		return fmt.Sprintf("(%s).%s", typeText(f.Decl.Recv.List[0].Type), f.Decl.Name.Name)
	}
	return f.Decl.Name.Name
}

// Loader parses and type-checks module packages on demand, memoized by
// directory, sharing one FileSet and one function index across the module.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet

	pkgs          map[string]*Package       // by absolute directory
	loading       map[string]bool           // import-cycle guard
	fakes         map[string]*types.Package // placeholder packages for external imports
	FuncOf        map[types.Object]*Fn      // func/method object -> declaration
	MethodsByName map[string][]*Fn          // method name -> all decls (conservative fallback)
	Fns           []*Fn                     // every indexed declaration, in load order
}

// NewLoader locates the module root (the nearest go.mod above dir) and
// reads the module path from it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	return &Loader{
		ModuleRoot:    root,
		ModulePath:    modPath,
		Fset:          token.NewFileSet(),
		pkgs:          make(map[string]*Package),
		loading:       make(map[string]bool),
		fakes:         make(map[string]*types.Package),
		FuncOf:        make(map[types.Object]*Fn),
		MethodsByName: make(map[string][]*Fn),
	}, nil
}

// buildTagOK evaluates a //go:build expression for the default (untagged)
// build: every tag is assumed satisfied except the repo's debug tag, so
// the release variant of tag-gated files is the one analyzed and its
// debug twin is skipped (loading both would double-declare symbols).
func buildTagOK(file []byte) bool {
	for _, line := range strings.Split(string(file), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			if expr, err := constraint.Parse(line); err == nil {
				return expr.Eval(func(tag string) bool {
					return tag != "ioverlay_debug"
				})
			}
			continue
		}
		break // past the header comment block
	}
	return true
}

// Load parses and type-checks the package in dir (non-test files only),
// loading module-local imports first. It is memoized and cycle-safe.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[abs]; ok {
		return p, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("lint: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		full := filepath.Join(abs, n)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		if !buildTagOK(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", full, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", abs)
	}

	// Load module-local imports first so their real types are available.
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if l.isLocal(path) {
				if _, err := l.Load(l.dirFor(path)); err != nil {
					return nil, fmt.Errorf("lint: load %s (imported by %s): %w", path, abs, err)
				}
			}
		}
	}

	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil {
		rel = filepath.Base(abs)
	}
	pkgPath := l.ModulePath
	if rel != "." {
		pkgPath = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	p := &Package{
		Dir:   abs,
		Path:  pkgPath,
		Name:  files[0].Name.Name,
		Files: files,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Error:    func(error) {}, // tolerate unresolved external identifiers
		Importer: &moduleImporter{l: l},
	}
	tpkg, _ := conf.Check(pkgPath, l.Fset, files, info) // partial info on error is expected
	p.Types = tpkg
	p.Info = info
	l.pkgs[abs] = p
	l.indexFuncs(p)
	return p, nil
}

// isLocal reports whether path names a package inside this module.
func (l *Loader) isLocal(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
}

// indexFuncs records every function and method declaration for call-graph
// resolution.
func (l *Loader) indexFuncs(p *Package) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := &Fn{Pkg: p, Decl: fd}
			l.Fns = append(l.Fns, fn)
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				l.FuncOf[obj] = fn
			}
			if fd.Recv != nil {
				l.MethodsByName[fd.Name.Name] = append(l.MethodsByName[fd.Name.Name], fn)
			}
		}
	}
}

// moduleImporter resolves module-local imports from source and replaces
// everything else (standard library included) with an empty placeholder
// package, keeping the analyzer self-contained and fast.
type moduleImporter struct{ l *Loader }

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mi.l.isLocal(path) {
		p, err := mi.l.Load(mi.l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if fake, ok := mi.l.fakes[path]; ok {
		return fake, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	fake := types.NewPackage(path, name)
	fake.MarkComplete()
	mi.l.fakes[path] = fake
	return fake, nil
}

// typeText renders a type expression compactly for diagnostics.
func typeText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeText(t.X)
	case *ast.SelectorExpr:
		return typeText(t.X) + "." + t.Sel.Name
	case *ast.IndexExpr:
		return typeText(t.X)
	default:
		return "?"
	}
}
