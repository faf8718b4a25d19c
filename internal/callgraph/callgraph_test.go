package callgraph

import (
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	calls := make([][]*cast.CallExpr, len(tu.Funcs))
	for i, f := range tu.Funcs {
		cast.Inspect(f.Body, func(n cast.Node) bool {
			if call, ok := n.(*cast.CallExpr); ok {
				calls[i] = append(calls[i], call)
			}
			return true
		})
	}
	return Build(tu, calls)
}

const sample = `
void leaf(void) {}
void middle(void) { leaf(); leaf(); }
void top(void) {
    middle();
    strlen("x");
}
int main(void) { top(); return 0; }
`

func TestEdges(t *testing.T) {
	g := build(t, sample)
	if len(g.Edges()) != 5 {
		t.Fatalf("edges: got %d, want 5", len(g.Edges()))
	}
}

func TestCallsFrom(t *testing.T) {
	g := build(t, sample)
	from := g.CallsFrom("middle")
	if len(from) != 2 {
		t.Fatalf("calls from middle: %d", len(from))
	}
	for _, e := range from {
		if e.CalleeName != "leaf" {
			t.Fatalf("callee: %s", e.CalleeName)
		}
		if e.Callee == nil {
			t.Fatal("leaf is defined; Callee must be resolved")
		}
	}
}

func TestCallsToAndExternal(t *testing.T) {
	g := build(t, sample)
	if got := len(g.CallsTo("leaf")); got != 2 {
		t.Fatalf("calls to leaf: %d", got)
	}
	ext := g.CallsFrom("top")
	foundExternal := false
	for _, e := range ext {
		if e.CalleeName == "strlen" && e.Callee == nil {
			foundExternal = true
		}
	}
	if !foundExternal {
		t.Fatal("strlen must appear as an unresolved external callee")
	}
}

func TestTransitiveCallees(t *testing.T) {
	g := build(t, sample)
	got := g.TransitiveCallees("main")
	want := map[string]bool{"top": true, "middle": true, "leaf": true, "strlen": true}
	if len(got) != len(want) {
		t.Fatalf("transitive: %v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Fatalf("unexpected callee %s", n)
		}
	}
}

func TestRecursionTerminates(t *testing.T) {
	g := build(t, `
void a(void);
void b(void) { a(); }
void a(void) { b(); }
`)
	got := g.TransitiveCallees("a")
	if len(got) != 2 {
		t.Fatalf("recursive transitive set: %v", got)
	}
}

func TestFunctionPointerCallUnresolved(t *testing.T) {
	// A call through a function-pointer variable keeps the variable's
	// spelling but resolves to no definition; a call through a computed
	// expression has no name at all, and resolves to no definition even
	// when the unit defines a function without a name.
	g := build(t, `
void f(void (*cb)(void)) {
    cb();
}
void g(void (**tab)(void)) {
    (*tab)();
}
void (void) {}
`)
	edges := g.CallsFrom("f")
	if len(edges) != 1 || edges[0].CalleeName != "cb" || edges[0].Callee != nil {
		t.Fatalf("pointer-variable call: %+v", edges)
	}
	edges = g.CallsFrom("g")
	if len(edges) != 1 || edges[0].CalleeName != "" || edges[0].Callee != nil {
		t.Fatalf("computed call should have empty callee name: %+v", edges)
	}
}
