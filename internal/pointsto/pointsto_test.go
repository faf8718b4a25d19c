package pointsto

import (
	"testing"
	"testing/quick"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/typecheck"
)

func analyze(t *testing.T, src string, opts Options) (*cast.TranslationUnit, *Graph, *AliasSets) {
	t.Helper()
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	typecheck.Check(tu)
	g := Analyze(tu, opts)
	return tu, g, ComputeAliases(g)
}

func symNamed(t *testing.T, tu *cast.TranslationUnit, name string) *cast.Symbol {
	t.Helper()
	for _, s := range tu.Symbols {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("symbol %q not found", name)
	return nil
}

// pointsToNames returns the names of var nodes in sym's points-to set.
func pointsToNames(g *Graph, sym *cast.Symbol) map[string]bool {
	out := make(map[string]bool)
	for _, n := range g.PointsTo(sym) {
		if n.Kind == NodeVar && n.Sym != nil {
			out[n.Sym.Name] = true
		} else if n.Kind == NodeHeap {
			out["<heap>"] = true
		} else if n.Kind == NodeString {
			out["<string>"] = true
		}
	}
	return out
}

func TestAddressOf(t *testing.T) {
	tu, g, _ := analyze(t, `
void f(void) {
    int x;
    int *p;
    p = &x;
}
`, Options{})
	p := symNamed(t, tu, "p")
	pts := pointsToNames(g, p)
	if !pts["x"] || len(pts) != 1 {
		t.Fatalf("pts(p): got %v, want {x}", pts)
	}
}

func TestCopyPropagation(t *testing.T) {
	tu, g, _ := analyze(t, `
void f(void) {
    int x;
    int *p, *q;
    p = &x;
    q = p;
}
`, Options{})
	q := symNamed(t, tu, "q")
	if pts := pointsToNames(g, q); !pts["x"] {
		t.Fatalf("pts(q): got %v, want x included", pts)
	}
}

func TestArrayDecay(t *testing.T) {
	tu, g, _ := analyze(t, `
void f(void) {
    char buf[10];
    char *dst;
    dst = buf;
}
`, Options{})
	dst := symNamed(t, tu, "dst")
	if pts := pointsToNames(g, dst); !pts["buf"] {
		t.Fatalf("pts(dst): got %v, want buf", pts)
	}
}

func TestHeapAllocation(t *testing.T) {
	tu, g, _ := analyze(t, `
void f(void) {
    char *p;
    p = malloc(10);
}
`, Options{})
	p := symNamed(t, tu, "p")
	if pts := pointsToNames(g, p); !pts["<heap>"] {
		t.Fatalf("pts(p): got %v, want heap node", pts)
	}
}

func TestStringLiteral(t *testing.T) {
	tu, g, _ := analyze(t, `void f(void){ char *p; p = "abc"; }`, Options{})
	p := symNamed(t, tu, "p")
	if pts := pointsToNames(g, p); !pts["<string>"] {
		t.Fatalf("pts(p): got %v, want string node", pts)
	}
}

func TestLoadConstraint(t *testing.T) {
	tu, g, _ := analyze(t, `
void f(void) {
    int x;
    int *p;
    int **pp;
    int *q;
    p = &x;
    pp = &p;
    q = *pp;
}
`, Options{})
	q := symNamed(t, tu, "q")
	if pts := pointsToNames(g, q); !pts["x"] {
		t.Fatalf("pts(q): got %v, want x (via load)", pts)
	}
}

func TestStoreConstraint(t *testing.T) {
	tu, g, _ := analyze(t, `
void f(void) {
    int x;
    int *p;
    int **pp;
    pp = &p;
    *pp = &x;
}
`, Options{})
	p := symNamed(t, tu, "p")
	if pts := pointsToNames(g, p); !pts["x"] {
		t.Fatalf("pts(p): got %v, want x (via store)", pts)
	}
}

func TestPointerArithmeticKeepsTarget(t *testing.T) {
	tu, g, _ := analyze(t, `
void f(void) {
    char buf[10];
    char *p, *q;
    p = buf;
    q = p + 3;
}
`, Options{})
	q := symNamed(t, tu, "q")
	if pts := pointsToNames(g, q); !pts["buf"] {
		t.Fatalf("pts(q): got %v, want buf", pts)
	}
}

func TestAliasViaSharedTarget(t *testing.T) {
	tu, _, aliases := analyze(t, `
void f(void) {
    char buf[10];
    char *p, *q;
    p = buf;
    q = buf;
}
`, Options{})
	p := symNamed(t, tu, "p")
	q := symNamed(t, tu, "q")
	if !aliases.IsAliased(p) {
		t.Fatal("p should be aliased (q points to the same buffer)")
	}
	if !aliases.IsAliased(q) {
		t.Fatal("q should be aliased")
	}
	set := aliases.AliasSetOf(p)
	names := make(map[string]bool)
	for _, s := range set {
		names[s.Name] = true
	}
	if !names["p"] || !names["q"] {
		t.Fatalf("alias set of p: got %v, want {p, q}", names)
	}
}

func TestUnaliasedSinglePointer(t *testing.T) {
	tu, _, aliases := analyze(t, `
void f(void) {
    char buf[10];
    char *dst;
    dst = buf;
}
`, Options{})
	dst := symNamed(t, tu, "dst")
	if aliases.IsAliased(dst) {
		t.Fatal("dst is the only pointer to buf; it must not be aliased")
	}
}

func TestDistinctTargetsNotAliased(t *testing.T) {
	tu, _, aliases := analyze(t, `
void f(void) {
    char a[10], b[10];
    char *p, *q;
    p = a;
    q = b;
}
`, Options{})
	p := symNamed(t, tu, "p")
	if aliases.IsAliased(p) {
		t.Fatal("p and q point to distinct buffers; no aliasing")
	}
}

func TestStructAggregateAliasing(t *testing.T) {
	// The paper's SLR failure case (2): a struct member aliased makes the
	// whole struct aliased because structs are aggregate nodes.
	tu, _, aliases := analyze(t, `
struct holder { char *buf; char *other; };
void f(void) {
    char a[10];
    struct holder h;
    char *p;
    h.buf = a;
    p = a;
}
`, Options{})
	h := symNamed(t, tu, "h")
	p := symNamed(t, tu, "p")
	if !aliases.IsAliased(h) || !aliases.IsAliased(p) {
		t.Fatal("h (aggregate) and p share the target a; both must be aliased")
	}
}

func TestCopyCycleCollapsed(t *testing.T) {
	tu, g, _ := analyze(t, `
void f(void) {
    int x;
    int *p, *q, *r;
    p = &x;
    q = p;
    r = q;
    p = r;
}
`, Options{})
	if g.Stats.CyclesCollapsed == 0 {
		t.Fatal("the p->q->r->p copy cycle should be collapsed")
	}
	for _, name := range []string{"p", "q", "r"} {
		s := symNamed(t, tu, name)
		if pts := pointsToNames(g, s); !pts["x"] {
			t.Fatalf("pts(%s): got %v, want x", name, pts)
		}
	}
}

// TestPropertyChainPropagation checks, for generated copy chains of
// arbitrary length, that the points-to set of the last pointer includes
// the root target — an inclusion invariant of Andersen's analysis.
func TestPropertyChainPropagation(t *testing.T) {
	f := func(rawLen uint8) bool {
		chainLen := int(rawLen%20) + 1
		src := "void f(void) {\n    int x;\n    int *p0;\n    p0 = &x;\n"
		for i := 1; i <= chainLen; i++ {
			src += "    int *p" + itoa(i) + ";\n"
			src += "    p" + itoa(i) + " = p" + itoa(i-1) + ";\n"
		}
		src += "}\n"
		tu, err := cparse.Parse("t.c", src)
		if err != nil {
			return false
		}
		typecheck.Check(tu)
		g := Analyze(tu, Options{})
		var last *cast.Symbol
		for _, s := range tu.Symbols {
			if s.Name == "p"+itoa(chainLen) {
				last = s
			}
		}
		if last == nil {
			return false
		}
		return pointsToNames(g, last)["x"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// TestPropertyCycleEliminationPreservesFixpoint generates random pointer
// programs and asserts the solver reaches the same fixpoint with and
// without offline cycle elimination.
func TestPropertyCycleEliminationPreservesFixpoint(t *testing.T) {
	gen := func(seed uint32) string {
		r := seed
		next := func(n int) int {
			r = r*1664525 + 1013904223
			return int(r>>18) % n
		}
		nPtr := next(8) + 3
		nObj := next(4) + 2
		src := "void f(void) {\n"
		for i := 0; i < nObj; i++ {
			src += "    int o" + itoa(i) + ";\n"
		}
		for i := 0; i < nPtr; i++ {
			src += "    int *p" + itoa(i) + ";\n"
		}
		src += "    int **pp;\n"
		nStmt := next(12) + 4
		for s := 0; s < nStmt; s++ {
			switch next(4) {
			case 0:
				src += "    p" + itoa(next(nPtr)) + " = &o" + itoa(next(nObj)) + ";\n"
			case 1:
				src += "    p" + itoa(next(nPtr)) + " = p" + itoa(next(nPtr)) + ";\n"
			case 2:
				src += "    pp = &p" + itoa(next(nPtr)) + ";\n"
			default:
				src += "    *pp = &o" + itoa(next(nObj)) + ";\n"
			}
		}
		src += "}\n"
		return src
	}
	f := func(seed uint32) bool {
		src := gen(seed)
		tu1, err := cparse.Parse("t.c", src)
		if err != nil {
			return false
		}
		typecheck.Check(tu1)
		tu2, _ := cparse.Parse("t.c", src)
		typecheck.Check(tu2)

		gSeq := Analyze(tu1, Options{})
		gNoCE := Analyze(tu2, Options{DisableCycleElimination: true})

		for i, s1 := range tu1.Symbols {
			m1 := pointsToNames(gSeq, s1)
			m2 := pointsToNames(gNoCE, tu2.Symbols[i])
			if len(m1) != len(m2) {
				t.Logf("mismatch for %s on:\n%s", s1.Name, src)
				return false
			}
			for k := range m1 {
				if !m2[k] {
					t.Logf("mismatch for %s on:\n%s", s1.Name, src)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldSensitiveSeparatesMembers(t *testing.T) {
	src := `
struct hdr { char *data; char *other; };
void f(void) {
    struct hdr h;
    char *cursor;
    h.other = malloc(16);
    cursor = h.other;
    h.data = malloc(64);
}
`
	// Aggregate model: the whole struct is aliased with cursor.
	tuA, _, aliasesA := analyze(t, src, Options{})
	h := symNamed(t, tuA, "h")
	if !aliasesA.IsAliasedMember(h, "data") {
		t.Fatal("aggregate model must report h.data aliased (contamination)")
	}
	// Field-sensitive: only h.other is aliased; h.data is clean.
	tuF, gF, aliasesF := analyze(t, src, Options{FieldSensitive: true})
	hF := symNamed(t, tuF, "h")
	if aliasesF.IsAliasedMember(hF, "data") {
		t.Fatal("field-sensitive model must keep h.data unaliased")
	}
	if !aliasesF.IsAliasedMember(hF, "other") {
		t.Fatal("h.other is genuinely aliased with cursor")
	}
	_ = gF
}
