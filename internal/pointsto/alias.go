package pointsto

import (
	"sort"

	"repro/internal/cast"
	"repro/internal/dataflow"
)

// AliasSets groups variables that may refer to the same storage. Following
// the paper (Section III-A), the alias generator walks the solved
// points-to graph (topological order over the collapsed DAG; recursive
// self-cycles on aggregates are ignored) and unions every pair of pointer
// variables whose points-to sets intersect. The resulting sets are cached
// in a hash map for efficient access.
type AliasSets struct {
	graph *Graph
	// class maps a (symbol, member) key to its alias class representative
	// (union-find, fully collapsed at construction). Whole-object nodes
	// use member "".
	class map[fieldKey]int
	// members maps a class representative to its members, each as the
	// ID of a node naming the member symbol, in symbol ID order. They
	// resolve through graph's nodes, so alias sets rebound to a carried
	// graph (Rebind) name its symbols.
	members map[int][]int
}

var _ dataflow.AliasOracle = (*AliasSets)(nil)

// ComputeAliases builds alias sets from a solved points-to graph.
func ComputeAliases(g *Graph) *AliasSets {
	a := &AliasSets{
		graph:   g,
		class:   make(map[fieldKey]int),
		members: make(map[int][]int),
	}
	aliasComputations.Add(1)
	if !g.solved {
		return a
	}

	// Union-find over var nodes keyed by symbol ID.
	parent := make(map[int]int)
	var find func(int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[ry] = rx
		}
	}

	// Invert the points-to relation: pointee node -> pointer nodes.
	// Self-cycles (an aggregate pointing to itself) are irrelevant to
	// aliasing and ignored, as the paper notes. Pointer nodes are
	// identified by (symbol, member) so field-sensitive graphs keep
	// members in distinct classes; aggregate graphs only have member "".
	idOf := make(map[fieldKey]int)
	keys := make([]fieldKey, 0, len(g.Nodes))
	keyID := func(k fieldKey) int {
		if id, ok := idOf[k]; ok {
			return id
		}
		id := len(idOf)*2 + 1_000_000 // distinct from symbol IDs
		idOf[k] = id
		keys = append(keys, k)
		return id
	}
	pointersAt := make(map[int][]fieldKey)
	for _, n := range g.Nodes {
		if n.Kind != NodeVar || n.Sym == nil {
			continue
		}
		key := fieldKey{symID: n.Sym.ID, member: n.Field}
		g.pts[g.rep[n.ID]].ForEach(func(pointee int) {
			if pointee == n.ID {
				return // recursive cycle: ignore
			}
			pointersAt[pointee] = append(pointersAt[pointee], key)
		})
		find(keyID(key)) // ensure singleton class exists
	}

	for _, ptrs := range pointersAt {
		for i := 1; i < len(ptrs); i++ {
			union(keyID(ptrs[0]), keyID(ptrs[i]))
		}
	}

	// Collapse and materialize member lists.
	symNode := make(map[int]int)
	for _, n := range g.Nodes {
		if n.Kind == NodeVar && n.Sym != nil {
			symNode[n.Sym.ID] = n.ID
		}
	}
	for _, k := range keys {
		root := find(keyID(k))
		a.class[k] = root
		if id, ok := symNode[k.symID]; ok {
			a.members[root] = append(a.members[root], id)
		}
	}
	for _, m := range a.members {
		sort.Slice(m, func(i, j int) bool { return g.Nodes[m[i]].Sym.ID < g.Nodes[m[j]].Sym.ID })
	}
	return a
}

// Rebind returns the alias sets of g. When Reanalyze carried g from a's
// graph, they share a's classes, and their members resolve through g's
// nodes; otherwise they are ComputeAliases(g).
func (a *AliasSets) Rebind(g *Graph) *AliasSets {
	if g.system != a.graph.system {
		return ComputeAliases(g)
	}
	return &AliasSets{graph: g, class: a.class, members: a.members}
}

// AliasSetOf returns the symbols that may alias sym (including sym itself
// when it participates in the graph), in symbol ID order.
func (a *AliasSets) AliasSetOf(sym *cast.Symbol) []*cast.Symbol {
	root, ok := a.class[fieldKey{symID: sym.ID}]
	if !ok {
		return nil
	}
	ids := a.members[root]
	out := make([]*cast.Symbol, len(ids))
	for i, id := range ids {
		out[i] = a.graph.Nodes[id].Sym
	}
	return out
}

// IsAliased reports whether sym shares storage with another named pointer:
// its alias set has at least two members. This is the ISALIASED test of
// Algorithm 1 (lines 27, 39).
func (a *AliasSets) IsAliased(sym *cast.Symbol) bool {
	root, ok := a.class[fieldKey{symID: sym.ID}]
	return ok && len(a.members[root]) > 1
}

// IsAliasedMember answers the line-39 test for a struct member access
// s.member. Under the aggregate model (the paper's default) this is the
// whole-struct answer; under the field-sensitive ablation the member's own
// node decides.
func (a *AliasSets) IsAliasedMember(sym *cast.Symbol, member string) bool {
	if root, ok := a.class[fieldKey{symID: sym.ID, member: member}]; ok {
		return len(a.members[root]) > 1
	}
	return a.IsAliased(sym)
}

// PointeesOf returns the variable symbols that sym may point to, in
// node ID order.
func (a *AliasSets) PointeesOf(sym *cast.Symbol) []*cast.Symbol {
	var out []*cast.Symbol
	for _, n := range a.graph.PointsTo(sym) {
		if n.Kind == NodeVar && n.Sym != nil {
			out = append(out, n.Sym)
		}
	}
	return out
}
