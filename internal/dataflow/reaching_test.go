package dataflow

import (
	"testing"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/fault"
	"repro/internal/typecheck"
)

// noAliases is an AliasOracle with no points-to information.
type noAliases struct{}

func (noAliases) PointeesOf(*cast.Symbol) []*cast.Symbol { return nil }

// prep parses src, typechecks it and computes reaching definitions for the
// first function.
func prep(t *testing.T, src string) (*cast.TranslationUnit, *cfg.Graph, *ReachingDefs) {
	t.Helper()
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	typecheck.Check(tu)
	g := cfg.Build(tu.Funcs[0])
	rd := ComputeReachingLimits(g, noAliases{}, fault.Limits{})
	return tu, g, rd
}

// symNamed finds a symbol by name in the unit.
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

// callNode locates the CFG node containing the first call to callee.
func callNode(t *testing.T, tu *cast.TranslationUnit, g *cfg.Graph, callee string) *cfg.Node {
	t.Helper()
	var call *cast.CallExpr
	cast.Inspect(tu, func(n cast.Node) bool {
		if c, ok := n.(*cast.CallExpr); ok && call == nil && c.Callee() == callee {
			call = c
		}
		return true
	})
	if call == nil {
		t.Fatalf("call to %s not found", callee)
	}
	n := g.NodeContaining(call)
	if n == nil {
		t.Fatalf("no CFG node contains the %s call", callee)
	}
	return n
}

func TestUniqueReachingStraightLine(t *testing.T) {
	tu, g, rd := prep(t, `
void f(void) {
    char buf[10];
    char *dst = buf;
    strcpy(dst, "hello");
}
`)
	dst := symNamed(t, tu, "dst")
	n := callNode(t, tu, g, "strcpy")
	def := rd.UniqueReaching(n, dst)
	if def == nil {
		t.Fatal("expected a unique reaching definition for dst")
	}
	if def.Kind != DefInit {
		t.Fatalf("kind: got %v, want DefInit", def.Kind)
	}
	if def.Value == nil {
		t.Fatal("init def should carry the initializer expression")
	}
}

func TestReassignmentKills(t *testing.T) {
	tu, g, rd := prep(t, `
void f(void) {
    char a[10];
    char b[20];
    char *p = a;
    p = b;
    strcpy(p, "x");
}
`)
	p := symNamed(t, tu, "p")
	n := callNode(t, tu, g, "strcpy")
	def := rd.UniqueReaching(n, p)
	if def == nil {
		t.Fatal("expected unique def after kill")
	}
	if def.Kind != DefAssign {
		t.Fatalf("kind: got %v, want DefAssign (the later assignment)", def.Kind)
	}
	// The reaching def's RHS must be b, not a.
	a, ok := def.Value.(*cast.AssignExpr)
	if !ok {
		t.Fatalf("value: got %T", def.Value)
	}
	rhs, ok := cast.Unparen(a.RHS).(*cast.Ident)
	if !ok || rhs.Name != "b" {
		t.Fatalf("reaching RHS: got %v", a.RHS)
	}
}

func TestBranchMergeYieldsMultipleDefs(t *testing.T) {
	tu, g, rd := prep(t, `
void f(int c) {
    char a[10];
    char b[20];
    char *p;
    if (c) { p = a; } else { p = b; }
    strcpy(p, "x");
}
`)
	p := symNamed(t, tu, "p")
	n := callNode(t, tu, g, "strcpy")
	defs := rd.ReachingFor(n, p)
	if len(defs) != 2 {
		t.Fatalf("defs reaching merge: got %d, want 2", len(defs))
	}
	if rd.UniqueReaching(n, p) != nil {
		t.Fatal("UniqueReaching must refuse on merges")
	}
}

func TestDeclWithoutInitIsADef(t *testing.T) {
	tu, g, rd := prep(t, `
void f(void) {
    char *p;
    strcpy(p, "x");
}
`)
	p := symNamed(t, tu, "p")
	n := callNode(t, tu, g, "strcpy")
	def := rd.UniqueReaching(n, p)
	if def == nil {
		t.Fatal("uninitialized decl should still be the reaching def")
	}
	if def.Kind != DefDecl {
		t.Fatalf("kind: got %v, want DefDecl", def.Kind)
	}
}

func TestLoopCarriedDefs(t *testing.T) {
	tu, g, rd := prep(t, `
void f(int n) {
    char a[10];
    char *p = a;
    while (n > 0) {
        p = p + 1;
        n--;
    }
    strcpy(p, "x");
}
`)
	p := symNamed(t, tu, "p")
	n := callNode(t, tu, g, "strcpy")
	defs := rd.ReachingFor(n, p)
	// Both the initialization and the loop assignment reach the use.
	if len(defs) != 2 {
		t.Fatalf("defs: got %d, want 2", len(defs))
	}
}

func TestIncDecIsADef(t *testing.T) {
	tu, g, rd := prep(t, `
void f(void) {
    char a[10];
    char *p = a;
    p++;
    strcpy(p, "x");
}
`)
	p := symNamed(t, tu, "p")
	n := callNode(t, tu, g, "strcpy")
	def := rd.UniqueReaching(n, p)
	if def == nil {
		t.Fatal("expected unique reaching def")
	}
	if def.Kind != DefIncDec {
		t.Fatalf("kind: got %v, want DefIncDec", def.Kind)
	}
}

func TestMemberDefsTrackedSeparately(t *testing.T) {
	tu, g, rd := prep(t, `
struct holder { char *buf; int n; };
void f(void) {
    struct holder h;
    char a[10];
    h.buf = a;
    h.n = 3;
    strcpy(h.buf, "x");
}
`)
	h := symNamed(t, tu, "h")
	n := callNode(t, tu, g, "strcpy")
	var bufDefs []*Def
	for _, d := range rd.In(n) {
		if d.Sym == h && d.Member == "buf" {
			bufDefs = append(bufDefs, d)
		}
	}
	if len(bufDefs) != 1 {
		t.Fatalf("member defs of h.buf: got %d, want 1", len(bufDefs))
	}
	// h.n = 3 must not kill h.buf's definition.
	if bufDefs[0].Kind != DefAssign {
		t.Fatalf("kind: got %v", bufDefs[0].Kind)
	}
}

func TestWholeStructAssignKillsMember(t *testing.T) {
	tu, g, rd := prep(t, `
struct holder { char *buf; int n; };
void f(struct holder other) {
    struct holder h;
    char a[10];
    h.buf = a;
    h = other;
    strcpy(h.buf, "x");
}
`)
	h := symNamed(t, tu, "h")
	n := callNode(t, tu, g, "strcpy")
	for _, d := range rd.In(n) {
		if d.Sym == h && d.Member == "buf" {
			t.Fatal("whole-struct assignment must kill member definitions")
		}
	}
}

func TestAddressOfArgIsWeakDef(t *testing.T) {
	tu, g, rd := prep(t, `
void f(void) {
    char *p;
    char a[10];
    p = a;
    scanf("%s", &p);
    strcpy(p, "x");
}
`)
	p := symNamed(t, tu, "p")
	n := callNode(t, tu, g, "strcpy")
	defs := rd.ReachingFor(n, p)
	// The strong assignment p=a plus the weak call-out def both reach.
	if len(defs) != 2 {
		t.Fatalf("defs: got %d, want 2 (assign + weak call-out)", len(defs))
	}
	weak := 0
	for _, d := range defs {
		if d.Weak {
			weak++
		}
	}
	if weak != 1 {
		t.Fatalf("weak defs: got %d, want 1", weak)
	}
}

func TestBitSetOps(t *testing.T) {
	b := NewBitSet(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Fatal("set/has broken")
	}
	if b.Count() != 3 {
		t.Fatalf("count: got %d", b.Count())
	}
	c := b.Clone()
	c.Set(1)
	if !c.Has(1) || b.Has(1) {
		t.Fatal("clone must be independent")
	}
	d := NewBitSet(130)
	if changed := d.UnionWith(b); !changed {
		t.Fatal("union should report change")
	}
	if !d.Equal(b) {
		t.Fatal("union result mismatch")
	}
	e := NewBitSet(130)
	e.Set(0)
	e.Set(129)
	d.DiffWith(e)
	if d.Count() != 1 || !d.Has(64) {
		t.Fatal("diff broken")
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Fatalf("foreach: got %v", got)
	}
}

// TestReachingDegradesToTop pins the budget rule: a solve cut by its step
// budget reports Degraded and widens every IN set to all definitions,
// the sound top of this may-analysis.
func TestReachingDegradesToTop(t *testing.T) {
	_, g, _ := prep(t, `
void f(int c) {
    char a[10];
    char *p = a;
    while (c) { p = p + 1; c--; }
    strcpy(p, "x");
}
`)
	rd := ComputeReachingLimits(g, noAliases{}, fault.Limits{Steps: 1})
	if !rd.Degraded {
		t.Fatal("a 1-step budget must degrade the solve")
	}
	for _, n := range g.Nodes {
		if got := len(rd.In(n)); got != len(rd.Defs) {
			t.Fatalf("node %d: %d of %d definitions reach", n.ID, got, len(rd.Defs))
		}
	}
}
