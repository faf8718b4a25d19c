// Package callgraph builds the static call graph of a translation unit —
// one of the base analyses OpenRefactory/C provides (Section III-A).
// Calls through function pointers are recorded as unresolved edges;
// clients that need soundness (internal/interproc) treat unresolved calls
// conservatively.
package callgraph

import (
	"sort"

	"repro/internal/cast"
)

// Edge is one call site.
type Edge struct {
	// Caller is the enclosing function definition.
	Caller *cast.FuncDef
	// Call is the call expression.
	Call *cast.CallExpr
	// Callee is the called function definition when it is defined in this
	// unit; nil for external or unresolved calls.
	Callee *cast.FuncDef
	// CalleeName is the spelled name of the callee ("" for calls through
	// expressions).
	CalleeName string
}

// Graph is the static call graph.
type Graph struct {
	unit  *cast.TranslationUnit
	edges []Edge
	// out indexes edges by caller name.
	out map[string][]int
	// in indexes edges by callee name.
	in map[string][]int
}

// Build constructs the call graph of the unit from the call expressions
// of each function body: calls[i] lists those of unit.Funcs[i] in the
// order cast.Inspect visits them. A caller that keeps each body's calls
// across edits rebuilds the graph without walking any body.
func Build(unit *cast.TranslationUnit, calls [][]*cast.CallExpr) *Graph {
	g := &Graph{
		unit: unit,
		out:  make(map[string][]int, len(unit.Funcs)),
		in:   make(map[string][]int),
	}
	defs := make(map[string]*cast.FuncDef, len(unit.Funcs))
	for _, f := range unit.Funcs {
		defs[f.Name] = f
	}
	n := 0
	for _, cs := range calls {
		n += len(cs)
	}
	g.edges = make([]Edge, 0, n)
	for i, f := range unit.Funcs {
		for _, call := range calls[i] {
			name := call.Callee()
			e := Edge{Caller: f, Call: call, CalleeName: name}
			if name != "" {
				e.Callee = defs[name]
			}
			idx := len(g.edges)
			g.edges = append(g.edges, e)
			g.out[f.Name] = append(g.out[f.Name], idx)
			if name != "" {
				g.in[name] = append(g.in[name], idx)
			}
		}
	}
	return g
}

// Edges returns all call edges in source order.
func (g *Graph) Edges() []Edge { return g.edges }

// CallsFrom returns the call edges out of the named function.
func (g *Graph) CallsFrom(caller string) []Edge {
	return g.gather(g.out[caller])
}

// CallsTo returns the call edges targeting the named function.
func (g *Graph) CallsTo(callee string) []Edge {
	return g.gather(g.in[callee])
}

func (g *Graph) gather(idx []int) []Edge {
	out := make([]Edge, 0, len(idx))
	for _, i := range idx {
		out = append(out, g.edges[i])
	}
	return out
}

// Roots returns the functions defined in the unit that no in-unit call
// targets — the entry points interprocedural propagation starts from. A
// unit whose every function is called (e.g. mutual recursion) yields all
// functions, so propagation still has a starting set.
func (g *Graph) Roots() []*cast.FuncDef {
	var roots []*cast.FuncDef
	for _, f := range g.unit.Funcs {
		if len(g.in[f.Name]) == 0 {
			roots = append(roots, f)
		}
	}
	if len(roots) == 0 {
		roots = append(roots, g.unit.Funcs...)
	}
	return roots
}

// TransitiveCallees returns every function name reachable from the given
// root, excluding the root itself unless it is recursive.
func (g *Graph) TransitiveCallees(root string) []string {
	seen := make(map[string]struct{})
	var walk func(name string)
	walk = func(name string) {
		for _, i := range g.out[name] {
			e := &g.edges[i]
			if e.CalleeName == "" {
				continue
			}
			if _, ok := seen[e.CalleeName]; ok {
				continue
			}
			seen[e.CalleeName] = struct{}{}
			if e.Callee != nil {
				walk(e.CalleeName)
			}
		}
	}
	walk(root)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
