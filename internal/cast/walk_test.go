package cast_test

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/samate"
)

const walkSample = `
struct s { int a; char *name; };
int global = 3;
static int helper(int v) { return v * 2; }
void f(int n, char *p) {
    int i;
    struct s local;
    char buf[8];
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) {
            buf[i % 8] = 'a' + i;
        } else {
            local.a = helper(i);
        }
    }
    switch (n) {
    case 1:
        p = buf;
        break;
    default:
        p = local.name ? local.name : buf;
    }
    while (n-- > 0) {
        global += *p;
    }
    do { global--; } while (0);
    goto out;
out:
    return;
}
`

func TestChildrenExtentsNested(t *testing.T) {
	tu, err := cparse.Parse("w.c", walkSample)
	if err != nil {
		t.Fatal(err)
	}
	checkExtents(t, tu)
}

// checkExtents asserts the structural invariant every transformation
// depends on: a parent's extent covers each child's extent.
func checkExtents(t *testing.T, root cast.Node) {
	t.Helper()
	cast.Inspect(root, func(n cast.Node) bool {
		pe := n.Extent()
		if !pe.IsValid() {
			t.Errorf("node %T has invalid extent", n)
			return false
		}
		cast.EachChild(n, func(c cast.Node) {
			ce := c.Extent()
			if !ce.IsValid() {
				t.Errorf("child %T of %T has invalid extent", c, n)
				return
			}
			if !pe.Covers(ce) {
				t.Errorf("%T extent [%d,%d) does not cover child %T [%d,%d)",
					n, pe.Pos, pe.End, c, ce.Pos, ce.End)
			}
		})
		return true
	})
}

// TestExtentInvariantOverGeneratedCorpus runs the same invariant over a
// slice of the generated benchmark programs — thousands of distinct ASTs.
func TestExtentInvariantOverGeneratedCorpus(t *testing.T) {
	for _, cwe := range samate.CWEs {
		n := samate.TableIIICounts[cwe]
		if n > 40 {
			n = 40
		}
		for _, p := range samate.Generate(cwe, n) {
			tu, err := cparse.Parse(p.ID+".c", p.Source)
			if err != nil {
				t.Fatalf("%s: %v", p.ID, err)
			}
			checkExtents(t, tu)
		}
	}
}

func TestInspectPrune(t *testing.T) {
	tu, err := cparse.Parse("w.c", walkSample)
	if err != nil {
		t.Fatal(err)
	}
	// Pruning at functions must prevent visiting their bodies.
	sawIdent := false
	cast.Inspect(tu, func(n cast.Node) bool {
		if _, ok := n.(*cast.FuncDef); ok {
			return false
		}
		if _, ok := n.(*cast.Ident); ok {
			sawIdent = true
		}
		return true
	})
	// Identifiers inside function bodies are pruned; only file-scope
	// initializers could contribute, and global's initializer is a literal.
	if sawIdent {
		t.Fatal("pruning FuncDef should hide body identifiers")
	}
}

func TestInspectExprs(t *testing.T) {
	tu, err := cparse.Parse("w.c", walkSample)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	cast.InspectExprs(tu, func(e cast.Expr) bool {
		count++
		return true
	})
	if count < 30 {
		t.Fatalf("expected many expressions, got %d", count)
	}
}

func TestUnparen(t *testing.T) {
	tu, err := cparse.Parse("p.c", "void f(void){ int x; x = (((x))); }")
	if err != nil {
		t.Fatal(err)
	}
	var rhs cast.Expr
	cast.Inspect(tu, func(n cast.Node) bool {
		if a, ok := n.(*cast.AssignExpr); ok {
			rhs = a.RHS
		}
		return true
	})
	inner := cast.Unparen(rhs)
	if _, ok := inner.(*cast.Ident); !ok {
		t.Fatalf("Unparen: got %T", inner)
	}
}

func TestCalleeHelper(t *testing.T) {
	tu, err := cparse.Parse("c.c", `
void f(void (*cb)(void)) {
    strlen("x");
    (strlen)("y");
    cb();
}
`)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	cast.Inspect(tu, func(n cast.Node) bool {
		if c, ok := n.(*cast.CallExpr); ok {
			names = append(names, c.Callee())
		}
		return true
	})
	if len(names) != 3 || names[0] != "strlen" || names[1] != "strlen" || names[2] != "cb" {
		t.Fatalf("callees: %v", names)
	}
}

func TestFuncNamed(t *testing.T) {
	tu, err := cparse.Parse("f.c", "void a(void){} void b(void){}")
	if err != nil {
		t.Fatal(err)
	}
	if tu.FuncNamed("b") == nil || tu.FuncNamed("missing") != nil {
		t.Fatal("FuncNamed lookup")
	}
}

func TestFuncAt(t *testing.T) {
	src := "int g; void a(void){} int h; void b(void){ int x; }"
	tu, err := cparse.Parse("f.c", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at   string
		want string
	}{
		{"int g", ""},
		{"void a", "a"},
		{"{} int h", "a"},
		{"int h", ""},
		{"void b", "b"},
		{"int x", "b"},
	} {
		fn := tu.FuncAt(ctoken.Pos(strings.Index(src, tc.at)))
		got := ""
		if fn != nil {
			got = fn.Name
		}
		if got != tc.want {
			t.Errorf("FuncAt(%q) = %q, want %q", tc.at, got, tc.want)
		}
	}
	if fn := tu.FuncAt(ctoken.Pos(len(src))); fn != nil {
		t.Errorf("FuncAt(end) = %s, want none", fn.Name)
	}
}
