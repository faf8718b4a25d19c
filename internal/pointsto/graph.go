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
	// system is everything but the nodes: a graph carried across an
	// in-body edit (Reanalyze) shares its predecessor's.
	*system
	// base and prior serve the regeneration of one body against a
	// solved graph's prefix (Reanalyze): new nodes take IDs from base,
	// and lookups fall back to prior's nodes below base, the nodes that
	// existed when the body was first generated. A whole generation has
	// base 0 and no prior.
	base  int
	prior *system
	// Stats describes the solve for benchmarking.
	Stats SolveStats
}

// system is a graph's constraint system and its solution. It is
// written by generation and the solve only, and read-only once solved.
type system struct {
	// varNode maps symbol IDs to their node's ID.
	varNode map[int]int
	// fieldNode maps (symbol ID, member) to per-field nodes' IDs in
	// field-sensitive mode.
	fieldNode map[fieldKey]int
	// fieldSensitive records the mode the graph was generated under,
	// and cycles whether the solve collapsed copy cycles.
	fieldSensitive, cycles bool
	// constraints is the full generated constraint system.
	constraints []constraint
	// bodies[i] is the range of nodes and constraints generated from
	// the body of unit.Funcs[i].
	bodies []genRange
	// pts[i] is the solved points-to set of node i (as node IDs).
	pts []dataflow.BitSet
	// rep[i] is the union-find representative after cycle collapsing.
	rep []int
	// solved guards queries before solving.
	solved bool
}

// genRange is the half-open range of node IDs and of constraint indices
// one function body generated.
type genRange struct {
	nodeLo, nodeHi int
	consLo, consHi int
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
	return &Graph{system: &system{
		varNode:   make(map[int]int),
		fieldNode: make(map[fieldKey]int),
	}}
}

// newNode appends a node and returns its ID.
func (g *Graph) newNode(n *Node) int {
	n.ID = g.base + len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// nodeForField returns (creating on demand) the per-field node for a
// record-typed symbol's member (field-sensitive mode only).
func (g *Graph) nodeForField(sym *cast.Symbol, member string) int {
	key := fieldKey{symID: sym.ID, member: member}
	if id, ok := g.fieldNode[key]; ok {
		return id
	}
	if g.prior != nil {
		if id, ok := g.prior.fieldNode[key]; ok && id < g.base {
			return id
		}
	}
	id := g.newNode(&Node{Kind: NodeVar, Sym: sym, Field: member})
	g.fieldNode[key] = id
	return id
}

// nodeForSym returns (creating on demand) the node for a symbol.
func (g *Graph) nodeForSym(sym *cast.Symbol, aggregate bool) int {
	if id, ok := g.varNode[sym.ID]; ok {
		return id
	}
	if g.prior != nil {
		if id, ok := g.prior.varNode[sym.ID]; ok && id < g.base {
			return id
		}
	}
	id := g.newNode(&Node{Kind: NodeVar, Sym: sym, Aggregate: aggregate})
	g.varNode[sym.ID] = id
	return id
}

// newHeapNode creates a node for a heap allocation site.
func (g *Graph) newHeapNode(site cast.Expr) int {
	return g.newNode(&Node{Kind: NodeHeap, Site: site})
}

// newTempNode creates an anonymous variable node.
func (g *Graph) newTempNode() int {
	return g.newNode(&Node{Kind: NodeVar})
}

// newStringNode creates a node for a string literal.
func (g *Graph) newStringNode(site cast.Expr) int {
	return g.newNode(&Node{Kind: NodeString, Site: site, Aggregate: true})
}

func (g *Graph) addConstraint(kind constraintKind, dst, src int) {
	g.constraints = append(g.constraints, constraint{kind: kind, dst: dst, src: src})
}

// find returns the union-find representative of node i, halving the
// path as it goes; only the solve calls it. Once solved, rep[i] is the
// representative itself.
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
	id, ok := g.varNode[sym.ID]
	if !ok {
		return nil
	}
	var out []*Node
	g.pts[g.rep[id]].ForEach(func(i int) {
		out = append(out, g.Nodes[i])
	})
	return out
}

// sameNodes reports whether a and b are node for node the same kind,
// field, aggregate mark and symbol ID.
func sameNodes(a, b []*Node) bool {
	return slices.EqualFunc(a, b, func(n, m *Node) bool {
		return n.Kind == m.Kind && n.Field == m.Field && n.Aggregate == m.Aggregate && symID(n) == symID(m)
	})
}

// symID is the ID of n's symbol, or -1 for a node without one.
func symID(n *Node) int {
	if n.Sym == nil {
		return -1
	}
	return n.Sym.ID
}
