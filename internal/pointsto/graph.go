// Package pointsto implements the points-to and alias analysis the paper
// builds for OpenRefactory/C (Section III-A, Figure 1): an
// intra-procedural, flow-insensitive, inclusion-based (Andersen-style)
// analysis following Hardekopf's formulation, performed at source level.
//
// The constraint generator traverses the AST and produces a graph whose
// nodes are program variables (plus heap-allocation sites and string
// literals); edges indicate that one variable may point to another. Arrays
// and structures are aggregate nodes — no shape analysis — exactly the
// simplification the paper makes and whose consequences its evaluation
// reports (two of the four SLR precondition-failure classes).
//
// The solver rewrites the graph to a fixpoint with a sequential worklist,
// after collapsing copy cycles offline (Hardekopf). The paper ran the
// rewriting on the Galois engine in parallel; the fixpoint is unique, so
// the order rules fire in changes only the speed (DESIGN.md Section 3).
package pointsto

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cast"
	"repro/internal/dataflow"
)

// NodeKind classifies points-to graph nodes.
type NodeKind int

// Node kinds.
const (
	NodeInvalid NodeKind = iota
	NodeVar              // a named variable (object)
	NodeHeap             // a heap allocation site
	NodeString           // a string literal object
)

// Node is one vertex of the points-to graph.
type Node struct {
	ID   int
	Kind NodeKind
	// Sym is set for NodeVar nodes.
	Sym *cast.Symbol
	// Field names the struct member for field-sensitive member nodes
	// ("" for whole-object nodes; see Options.FieldSensitive).
	Field string
	// Site is the allocating call or literal for heap/string nodes.
	Site cast.Expr
	// Aggregate marks arrays and structs, which are single nodes without
	// shape analysis.
	Aggregate bool
}

// String renders the node for diagnostics.
func (n *Node) String() string {
	switch n.Kind {
	case NodeVar:
		if n.Sym == nil {
			return fmt.Sprintf("tmp#%d", n.ID)
		}
		if n.Field != "" {
			return n.Sym.Name + "." + n.Field
		}
		return n.Sym.Name
	case NodeHeap:
		return fmt.Sprintf("heap#%d", n.ID)
	case NodeString:
		return fmt.Sprintf("str#%d", n.ID)
	default:
		return fmt.Sprintf("node#%d", n.ID)
	}
}

// constraintKind enumerates Andersen constraint forms.
type constraintKind int

const (
	// addrOf: dst ⊇ {src}  (dst = &src)
	addrOf constraintKind = iota + 1
	// copyC: pts(dst) ⊇ pts(src)  (dst = src)
	copyC
	// load: ∀v ∈ pts(src): pts(dst) ⊇ pts(v)  (dst = *src)
	load
	// store: ∀v ∈ pts(dst): pts(v) ⊇ pts(src)  (*dst = src)
	store
)

// constraint is one inclusion constraint between graph nodes.
type constraint struct {
	kind constraintKind
	dst  int
	src  int
}

// Graph is the constraint graph plus its solved points-to sets.
type Graph struct {
	Nodes []*Node
	// varNode maps symbol IDs to their node.
	varNode map[int]*Node
	// fieldNode maps (symbol ID, member) to per-field nodes in
	// field-sensitive mode.
	fieldNode map[fieldKey]*Node
	// fieldSensitive records the mode the graph was generated under.
	fieldSensitive bool
	// constraints is the full generated constraint system.
	constraints []constraint
	// pts[i] is the solved points-to set of node i (as node IDs).
	pts []dataflow.BitSet
	// rep[i] is the union-find representative after cycle collapsing.
	rep []int
	// solved guards queries before solving.
	solved bool
	// Stats describes the solve for benchmarking.
	Stats SolveStats
}

// SolveStats records solver effort for the ablation benchmarks.
type SolveStats struct {
	Iterations      int
	CyclesCollapsed int
	// Degraded marks a solve whose step budget ran out; the graph was
	// widened to the conservative top (see Options.Limits).
	Degraded bool
}

// fieldKey identifies one struct member of one symbol.
type fieldKey struct {
	symID  int
	member string
}

// newGraph returns an empty constraint graph.
func newGraph() *Graph {
	return &Graph{
		varNode:   make(map[int]*Node),
		fieldNode: make(map[fieldKey]*Node),
	}
}

// nodeForField returns (creating on demand) the per-field node for a
// record-typed symbol's member (field-sensitive mode only).
func (g *Graph) nodeForField(sym *cast.Symbol, member string) *Node {
	key := fieldKey{symID: sym.ID, member: member}
	if n, ok := g.fieldNode[key]; ok {
		return n
	}
	n := &Node{ID: len(g.Nodes), Kind: NodeVar, Sym: sym, Field: member}
	g.Nodes = append(g.Nodes, n)
	g.fieldNode[key] = n
	return n
}

// nodeForSym returns (creating on demand) the node for a symbol.
func (g *Graph) nodeForSym(sym *cast.Symbol, aggregate bool) *Node {
	if n, ok := g.varNode[sym.ID]; ok {
		return n
	}
	n := &Node{ID: len(g.Nodes), Kind: NodeVar, Sym: sym, Aggregate: aggregate}
	g.Nodes = append(g.Nodes, n)
	g.varNode[sym.ID] = n
	return n
}

// newHeapNode creates a node for a heap allocation site.
func (g *Graph) newHeapNode(site cast.Expr) *Node {
	n := &Node{ID: len(g.Nodes), Kind: NodeHeap, Site: site}
	g.Nodes = append(g.Nodes, n)
	return n
}

// newStringNode creates a node for a string literal.
func (g *Graph) newStringNode(site cast.Expr) *Node {
	n := &Node{ID: len(g.Nodes), Kind: NodeString, Site: site, Aggregate: true}
	g.Nodes = append(g.Nodes, n)
	return n
}

func (g *Graph) addConstraint(kind constraintKind, dst, src int) {
	g.constraints = append(g.constraints, constraint{kind: kind, dst: dst, src: src})
}

// find returns the union-find representative of node i.
func (g *Graph) find(i int) int {
	for g.rep[i] != i {
		g.rep[i] = g.rep[g.rep[i]]
		i = g.rep[i]
	}
	return i
}

// PointsTo returns the solved points-to set of a symbol as nodes, sorted
// by node ID for determinism.
func (g *Graph) PointsTo(sym *cast.Symbol) []*Node {
	if !g.solved {
		return nil
	}
	n, ok := g.varNode[sym.ID]
	if !ok {
		return nil
	}
	var out []*Node
	g.pts[g.find(n.ID)].ForEach(func(i int) {
		out = append(out, g.Nodes[i])
	})
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// PointsToIntersect reports whether the points-to sets of two symbols
// share a node.
func (g *Graph) PointsToIntersect(a, b *cast.Symbol) bool {
	if !g.solved {
		return false
	}
	na, ok1 := g.varNode[a.ID]
	nb, ok2 := g.varNode[b.ID]
	if !ok1 || !ok2 {
		return false
	}
	pa := g.pts[g.find(na.ID)]
	pb := g.pts[g.find(nb.ID)]
	for i := range pa {
		if i < len(pb) && pa[i]&pb[i] != 0 {
			return true
		}
	}
	return false
}

// SameSystem reports whether g and h generated the same constraint
// system over the same nodes — node for node the same kind, field,
// aggregate mark and symbol ID — in the same mode, and both solved it
// without degrading. Their solutions, alias sets and every query by
// symbol ID then agree, whatever symbol objects the IDs name. IDs are
// read from the nodes' symbols as they are now: a symbol two units
// share and one renumbered compares by its current ID in both graphs.
func (g *Graph) SameSystem(h *Graph) bool {
	if !g.solved || !h.solved || g.Stats.Degraded || h.Stats.Degraded ||
		g.fieldSensitive != h.fieldSensitive || len(g.Nodes) != len(h.Nodes) ||
		!slices.Equal(g.constraints, h.constraints) {
		return false
	}
	for i, n := range g.Nodes {
		m := h.Nodes[i]
		if n.Kind != m.Kind || n.Field != m.Field || n.Aggregate != m.Aggregate || symID(n) != symID(m) {
			return false
		}
	}
	return true
}

// symID is the ID of n's symbol, or -1 for a node without one.
func symID(n *Node) int {
	if n.Sym == nil {
		return -1
	}
	return n.Sym.ID
}
