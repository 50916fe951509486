package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkUnreferenced is check 5: it type-checks the non-test files of every
// module in the tree (the root module and nested ones such as benchmark/)
// and reports each exported package-level func, type, var or const, and
// each exported method, declared in a non-test file under internal/ that no
// non-test code references. A declaration's own body, and a type's own
// method receivers, do not count as references. A method also counts as
// referenced when its receiver type implements an interface that declares
// it, so methods that exist to satisfy an interface (error, fmt.Stringer,
// sort.Interface or one of the tree's own) stay.
func checkUnreferenced(root string) []string {
	l, err := newLoader(root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var problems []string
	for _, dir := range l.dirs {
		if _, err := l.load(l.importPath(dir)); err != nil && !errors.As(err, new(*build.NoGoError)) {
			problems = append(problems, fmt.Sprintf("%s: %v", rel(l.root, dir), err))
		}
	}
	if len(problems) > 0 {
		return problems
	}

	used := map[types.Object]bool{}
	own := ownSpans(l)
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if !inSpans(own[obj], id.Pos()) {
				used[obj] = true
			}
		}
	}
	markInterfaceMethods(l, used)

	type hit struct {
		pos  token.Position
		name string
	}
	var hits []hit
	internal := filepath.Join(l.root, "internal") + string(filepath.Separator)
	for _, p := range l.pkgs {
		for _, f := range p.files {
			if !strings.HasPrefix(l.fset.File(f.Pos()).Name(), internal) {
				continue
			}
			for _, id := range exportedDecls(f) {
				obj := p.info.Defs[id]
				if obj != nil && !used[obj] {
					hits = append(hits, hit{l.fset.Position(id.Pos()), qualifiedName(obj)})
				}
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i].pos, hits[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, h := range hits {
		problems = append(problems, fmt.Sprintf("%s:%d: %s has no non-test reference",
			rel(l.root, h.pos.Filename), h.pos.Line, h.name))
	}
	return problems
}

// loader type-checks the tree's packages from source: module imports
// resolve to directories in the tree, everything else to the standard
// library, itself type-checked from GOROOT source (no export data or
// network needed).
type loader struct {
	root    string
	fset    *token.FileSet
	modules map[string]string // module path -> module directory
	dirs    []string          // every package directory, in walk order
	std     types.Importer
	pkgs    map[string]*pkgInfo // by import path
}

type pkgInfo struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(root string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root:    abs,
		fset:    token.NewFileSet(),
		modules: map[string]string{},
		pkgs:    map[string]*pkgInfo{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err = filepath.WalkDir(abs, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if mod, err := modulePath(filepath.Join(path, "go.mod")); err == nil {
			l.modules[mod] = path
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		l.dirs = append(l.dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(l.modules) == 0 {
		return nil, fmt.Errorf("no go.mod under %s", root)
	}
	return l, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// importPath maps a package directory to its import path under the
// innermost module that contains it.
func (l *loader) importPath(dir string) string {
	best, bestDir := "", ""
	for mod, mdir := range l.modules {
		if (dir == mdir || strings.HasPrefix(dir, mdir+string(filepath.Separator))) && len(mdir) > len(bestDir) {
			best, bestDir = mod, mdir
		}
	}
	if rest, _ := filepath.Rel(bestDir, dir); rest != "." {
		return best + "/" + filepath.ToSlash(rest)
	}
	return best
}

// dirOf maps an import path to a directory of the module that owns it.
func (l *loader) dirOf(path string) (string, bool) {
	best, bestDir := "", ""
	for mod, mdir := range l.modules {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(best) {
			best, bestDir = mod, mdir
		}
	}
	if best == "" {
		return "", false
	}
	return filepath.Join(bestDir, filepath.FromSlash(strings.TrimPrefix(path[len(best):], "/"))), true
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirOf(path); !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and type-checks the non-test, build-constraint-matching files
// of one tree package, once.
func (l *loader) load(path string) (*pkgInfo, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, _ := l.dirOf(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkgInfo{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	var typeErrs []error
	conf := types.Config{Importer: l, Error: func(err error) { typeErrs = append(typeErrs, err) }}
	p.pkg, _ = conf.Check(path, l.fset, p.files, p.info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(typeErrs...))
	}
	l.pkgs[path] = p
	return p, nil
}

type span struct{ pos, end token.Pos }

func inSpans(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.pos <= pos && pos < s.end {
			return true
		}
	}
	return false
}

// ownSpans returns, per declared object, the source ranges whose references
// to it do not count: a func's own declaration (recursion), a type's own
// spec and its methods' receivers.
func ownSpans(l *loader) map[types.Object][]span {
	own := map[types.Object][]span{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					own[obj] = append(own[obj], span{d.Pos(), d.End()})
					if d.Recv != nil {
						if recv := receiverType(p.info, d); recv != nil {
							own[recv] = append(own[recv], span{d.Recv.Pos(), d.Recv.End()})
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							obj := p.info.Defs[ts.Name]
							own[obj] = append(own[obj], span{ts.Pos(), ts.End()})
						}
					}
				}
			}
		}
	}
	return own
}

// receiverType returns the named type a method is declared on.
func receiverType(info *types.Info, d *ast.FuncDecl) types.Object {
	fn, ok := info.Defs[d.Name].(*types.Func)
	if !ok {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// markInterfaceMethods marks as used every method through which a type of
// the tree implements an interface: error, or any non-generic interface
// declared in a tree package or in a package the tree imports, directly or
// not. Promoted methods are found through the embedding type.
func markInterfaceMethods(l *loader, used map[types.Object]bool) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	var named []*types.Named
	for _, p := range l.pkgs {
		visit(p.pkg)
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for _, n := range named {
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			for _, it := range ifaces {
				if !types.Implements(t, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); obj != nil {
						used[origin(obj)] = true
					}
				}
			}
		}
	}
}

func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// exportedDecls lists the identifiers of a file's exported package-level
// funcs, types, vars and consts, and of its exported methods.
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						ids = append(ids, s.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							ids = append(ids, n)
						}
					}
				}
			}
		}
	}
	return ids
}

// qualifiedName renders pkg.Name or pkg.Type.Method.
func qualifiedName(obj types.Object) string {
	name := obj.Pkg().Name() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				name = obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return name
}
