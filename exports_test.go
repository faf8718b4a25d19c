package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the exports under internal/ that only tests use
// and that stay on purpose, as "pkg.Name", "pkg.(Recv).Method", or
// "pkg.(Recv)" for every method of a test hook's type.
var testOnlyAllowed = map[string]string{
	"analysis.InjectFault":       "test hook: makes one analysis stage fail",
	"analysis.BodyWalks":         "test hook: counts per-body walks an edit costs",
	"analysis.LocalHashes":       "test hook: counts local hash computations",
	"analysis.ClosedHashes":      "test hook: counts closed hash computations",
	"pointsto.Solves":            "test hook: counts whole points-to solves",
	"pointsto.BodiesGenerated":   "test hook: counts bodies given constraints",
	"pointsto.AliasComputations": "test hook: counts alias set computations",
	"overflow.Solves":            "test hook: counts buffer-oracle solves, as pointsto.Solves does points-to solves",
	"intflow.Solves":             "test hook: counts integer-oracle solves, as pointsto.Solves does points-to solves",
	"cparse.FuncParses":          "test hook: counts function-only parses",
	"fault.NewChaosProxy":        "test hook: the fault-injecting proxy the fleet chaos tests drive",
	"fault.(*ChaosProxy)":        "test hook: the methods the chaos tests drive the proxy with",
	"samate.IntGenerateAll":      "test hook: the integer corpus the oracle digests render",
	"digest.Check":               "the golden-digest helper every digest test shares",
	"backend.LibraryNames":       "test hook: the catalog test compares the catalog with cinterp's builtins",
}

// TestNoTestOnlyExports fails on an exported top-level func, type or var,
// or an exported method, in internal/ that only test files use. Such code
// lives for its tests alone: delete it, or move what a test needs into the
// test. Constants are exempt, because enum names document their values.
//
// Every non-test Go file under the module root, cmd/bench (a module of its
// own) and examples/ included, is type-checked, the standard library from
// source with cgo off, so a use is matched to the object it names, not to
// a name: a function or method naming itself in its own body does not
// count. A method also counts as used when its type implements a named
// interface of a checked package, the standard library's included, that
// declares it (fmt.Stringer's String), and when code calls a method of
// that name through a generic or unnamed interface (overflow.Lattice's
// Join through dataflow's Problem[T]).
func TestNoTestOnlyExports(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		dirs[ip] = append(dirs[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The source importer reads build.Default; with cgo off it needs no
	// C compiler.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	imp := &moduleImporter{
		dirs: dirs, fset: fset, pkgs: map[string]*types.Package{},
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
	paths := make([]string, 0, len(dirs))
	for ip := range dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			t.Fatal(err)
		}
	}

	// Objects some non-test code uses, and names of methods called
	// through a generic or unnamed interface.
	used := map[types.Object]bool{}
	dynamic := map[string]bool{}
	for _, files := range dirs {
		for _, f := range files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = imp.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := imp.info.Uses[id]
					switch o := obj.(type) {
					case *types.Func:
						obj = o.Origin() // a generic method, not its instance
					case *types.Var:
						obj = o.Origin()
					}
					if obj == nil || obj == self {
						return true
					}
					used[obj] = true
					if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
						// A call through a generic or unnamed interface,
						// which types.Implements cannot match below.
						recv := fn.Type().(*types.Signature).Recv().Type()
						named, ok := recv.(*types.Named)
						if types.IsInterface(recv) && (!ok || named.TypeParams().Len() > 0) {
							dynamic[fn.Name()] = true
						}
					}
					return true
				})
			}
		}
	}
	ifaces := imp.interfaces()
	methodUsed := func(fn *types.Func) bool {
		if used[fn] || dynamic[fn.Name()] {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, iface := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	var bad []string
	allowed := map[string]bool{}
	report := func(ids []string, at token.Pos) {
		for _, id := range ids {
			if _, ok := testOnlyAllowed[id]; ok {
				allowed[id] = true
				return
			}
		}
		bad = append(bad, fset.Position(at).String()+": "+ids[0])
	}
	for _, ip := range paths {
		if !strings.HasPrefix(ip, module+"/internal/") {
			continue
		}
		scope := imp.pkgs[ip].Scope()
		pkg := path.Base(ip)
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if _, isConst := obj.(*types.Const); isConst || !obj.Exported() {
				continue
			}
			if !used[obj] {
				report([]string{pkg + "." + name}, obj.Pos())
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || methodUsed(m) {
					continue
				}
				recv := name
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "*" + name
				}
				report([]string{pkg + ".(" + recv + ")." + m.Name(), pkg + ".(" + recv + ")"}, m.Pos())
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s is exported but only tests use it", b)
	}
	for id := range testOnlyAllowed {
		if !allowed[id] {
			t.Errorf("testOnlyAllowed lists %s, which is gone or has a non-test use", id)
		}
	}
}

// moduleImporter type-checks the walked packages on demand, recording
// their uses in one Info, and imports everything else, the standard
// library, from source.
type moduleImporter struct {
	dirs map[string][]*ast.File
	fset *token.FileSet
	pkgs map[string]*types.Package
	std  types.Importer
	info *types.Info
}

func (m *moduleImporter) Import(ip string) (*types.Package, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p, nil
	}
	files, ok := m.dirs[ip]
	if !ok {
		return m.std.Import(ip)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(ip, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[ip] = p
	return p, nil
}

// interfaces returns error and every non-generic named interface type of
// the checked packages and of the packages they import, transitively.
func (m *moduleImporter) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		}
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, p := range m.pkgs {
		visit(p)
	}
	return out
}
