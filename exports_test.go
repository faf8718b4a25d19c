package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed names the exports under internal/ that only tests use
// and that stay on purpose, as "pkg.Name" or "pkg.(Recv).Method".
var testOnlyAllowed = map[string]string{
	"analysis.InjectFault":         "test hook: makes one analysis stage fail",
	"analysis.BodyWalks":           "test hook: counts per-body walks an edit costs",
	"analysis.LocalHashes":         "test hook: counts local hash computations",
	"analysis.ClosedHashes":        "test hook: counts closed hash computations",
	"pointsto.Solves":              "test hook: counts whole points-to solves",
	"pointsto.BodiesGenerated":     "test hook: counts bodies given constraints",
	"pointsto.AliasComputations":   "test hook: counts alias set computations",
	"overflow.Solves":              "test hook: counts buffer-oracle solves, as pointsto.Solves does points-to solves",
	"intflow.Solves":               "test hook: counts integer-oracle solves, as pointsto.Solves does points-to solves",
	"cparse.FuncParses":            "test hook: counts function-only parses",
	"fault.NewChaosProxy":          "test hook: the fault-injecting proxy the fleet chaos tests drive",
	"fault.(*ChaosProxy).Injected": "test hook: how many faults the chaos proxy injected",
	"fault.(*ChaosProxy).Killed":   "test hook: whether the chaos proxy was killed",
	"samate.IntGenerateAll":        "test hook: the integer corpus the oracle digests render",
	"digest.Check":                 "the golden-digest helper every digest test shares",
}

// TestNoTestOnlyExports fails on an exported top-level func, type or var,
// or an exported method, in internal/ that only test files use. Such code
// lives for its tests alone: delete it, or move what a test needs into the
// test. Constants are exempt, because enum names document their values.
// A top-level name counts as used when a non-test file names it outside
// its declaration, package-qualified from another package or bare within
// its own; a function naming itself in its own body does not count. A
// method counts as used when a non-test selector carries its name. The
// walk covers every non-test Go file under the module root,
// cmd/bench (a module of its own) and examples/ included.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path
		ast *ast.File
	}
	var files []file
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
		files = append(files, file{path.Join(module, filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type key struct{ pkg, name string }
	used := map[key]bool{}       // top-level names some non-test file uses
	methods := map[string]bool{} // names some non-test selector uses
	for _, f := range files {
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		// Identifiers that declare or name a field rather than use a
		// package-level name.
		skip := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				skip[d.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						skip[s.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							skip[n] = true
						}
					}
				}
			}
		}
		self := "" // the top-level function being walked, if any
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methods[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						used[key{ip, n.Sel.Name}] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				for _, name := range n.Names {
					skip[name] = true
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							skip[k] = true
						}
					}
				}
			case *ast.Ident:
				if !skip[n] && n.Name != self {
					used[key{f.pkg, n.Name}] = true
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			self = ""
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name
			}
			ast.Inspect(d, visit)
		}
	}

	var bad []string
	allowed := map[string]bool{}
	report := func(id string, at token.Pos) {
		if _, ok := testOnlyAllowed[id]; ok {
			allowed[id] = true
			return
		}
		bad = append(bad, fset.Position(at).String()+": "+id)
	}
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, module+"/internal/") {
			continue
		}
		pkg := path.Base(f.pkg)
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				switch {
				case !ast.IsExported(name):
				case d.Recv != nil:
					if !methods[name] {
						report(pkg+".("+recvString(d.Recv.List[0].Type)+")."+name, d.Pos())
					}
				case !used[key{f.pkg, name}]:
					report(pkg+"."+name, d.Pos())
				}
			case *ast.GenDecl:
				if d.Tok == token.CONST {
					continue
				}
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						if ast.IsExported(n.Name) && !used[key{f.pkg, n.Name}] {
							report(pkg+"."+n.Name, n.Pos())
						}
					}
				}
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

// recvString renders a method receiver type as "T" or "*T", type
// parameters dropped.
func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvString(e.X)
	case *ast.IndexExpr:
		return recvString(e.X)
	case *ast.IndexListExpr:
		return recvString(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
