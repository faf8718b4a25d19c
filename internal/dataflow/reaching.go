package dataflow

import (
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/ctype"
	"repro/internal/fault"
)

// AliasOracle answers the points-to queries of the reaching-definitions
// transfer functions. internal/pointsto provides the implementation; the
// interface lives here so the dataflow layer does not depend on the
// points-to engine (mirroring the paper's layering, where the alias sets
// feed the reaching-definition analysis).
type AliasOracle interface {
	// PointeesOf returns the symbols that a pointer symbol may point to.
	PointeesOf(sym *cast.Symbol) []*cast.Symbol
}

// Def is a single definition site of a symbol.
type Def struct {
	// ID is the dense index of the definition within the function.
	ID int
	// Node is the CFG node that performs the definition.
	Node *cfg.Node
	// Sym is the defined symbol.
	Sym *cast.Symbol
	// Member is the field name for struct-member definitions ("" for
	// whole-object definitions). Structs are aggregates in the alias
	// analysis (Section III-A), but reaching definitions distinguish
	// member writes so that Algorithm 1's lines 42-46 can detect a
	// whole-struct redefinition between a member's definition and its use.
	Member string
	// Kind records what syntactic form performed the definition.
	Kind DefKind
	// Value is the defining expression: the initializer for declarations,
	// the full assignment expression for assignments (so compound
	// assignments keep their operator), nil otherwise.
	Value cast.Expr
	// Weak marks potential (may) definitions: writes through aliases,
	// writes to single elements of aggregates, and writes via calls. Weak
	// definitions do not kill.
	Weak bool
}

// DefKind classifies definition sites.
type DefKind int

// Definition kinds.
const (
	DefInvalid    DefKind = iota
	DefDecl               // declaration without initializer
	DefInit               // declaration with initializer
	DefAssign             // assignment expression
	DefIncDec             // ++/-- (prefix or postfix)
	DefCallOut            // address passed to a call; callee may write
	DefAliasWrite         // write through a dereferenced pointer that may alias
)

// ReachingDefs holds the solved reaching-definitions facts for one
// function.
type ReachingDefs struct {
	Graph *cfg.Graph
	Defs  []*Def
	// in[nodeID] is the set of definition IDs reaching the node's entry.
	in []BitSet
	// defsBySym groups definition IDs by symbol ID for fast queries.
	defsBySym map[int][]int
	// Degraded marks a solve whose step budget was exhausted. The IN
	// sets were widened to the conservative top (every definition
	// reaches every node), which is sound for this may-analysis: size
	// reasoning sees every definition and bails rather than trusting
	// partial facts.
	Degraded bool
	// Steps counts the worklist iterations the solve consumed — the
	// effort figure the observability layer reports per stage span.
	Steps int
}

// ComputeReachingLimits builds and solves reaching definitions for g
// using the given alias oracle, under fault-containment limits: the
// context in lim is polled at every worklist iteration, and a solve cut
// by the step budget widens every IN set to all definitions and sets
// Degraded.
func ComputeReachingLimits(g *cfg.Graph, aliases AliasOracle, lim fault.Limits) *ReachingDefs {
	rd := &ReachingDefs{
		Graph:     g,
		defsBySym: make(map[int][]int),
	}
	gen := make([][]*Def, len(g.Nodes))
	for _, n := range g.Nodes {
		defs := collectDefs(n, aliases)
		for _, d := range defs {
			d.ID = len(rd.Defs)
			rd.Defs = append(rd.Defs, d)
			rd.defsBySym[d.Sym.ID] = append(rd.defsBySym[d.Sym.ID], d.ID)
		}
		gen[n.ID] = defs
	}

	nDefs := len(rd.Defs)
	genBits := make([]BitSet, len(g.Nodes))
	killBits := make([]BitSet, len(g.Nodes))
	for _, n := range g.Nodes {
		genBits[n.ID] = NewBitSet(nDefs)
		killBits[n.ID] = NewBitSet(nDefs)
		for _, d := range gen[n.ID] {
			genBits[n.ID].Set(d.ID)
			if d.Weak {
				continue
			}
			// Strong definitions kill other defs of the same symbol:
			// whole-object defs kill everything (including member defs);
			// member defs kill only matching member defs.
			for _, otherID := range rd.defsBySym[d.Sym.ID] {
				other := rd.Defs[otherID]
				if otherID == d.ID {
					continue
				}
				if d.Member == "" || other.Member == d.Member {
					killBits[n.ID].Set(otherID)
				}
			}
		}
	}

	sol := SolveForwardLimits[BitSet](g, reaching{NewBitSet(nDefs), genBits, killBits}, lim)
	rd.in, rd.Degraded, rd.Steps = sol.In, sol.Degraded, sol.Steps
	if rd.Degraded {
		// All-ones IN sets are always a sound (if imprecise) answer for
		// a may-analysis.
		top := NewBitSet(nDefs)
		top.SetFirstN(nDefs)
		for i := range rd.in {
			rd.in[i] = top
		}
	}
	return rd
}

// reaching is the reaching-definitions Problem: sets of definition IDs
// joined by union, with each node's gen/kill transfer. No operation
// mutates a set it is given, so every unreached node shares one empty
// set.
type reaching struct {
	empty     BitSet
	gen, kill []BitSet
}

func (r reaching) Bottom() BitSet                 { return r.empty }
func (r reaching) Entry() BitSet                  { return r.empty }
func (r reaching) Widen(prev, next BitSet) BitSet { return r.Join(prev, next) }
func (r reaching) Equal(a, b BitSet) bool         { return a.Equal(b) }

func (r reaching) FlowEdge(_, _ *cfg.Node, s BitSet) BitSet { return s }

func (r reaching) Join(a, b BitSet) BitSet {
	out := a.Clone()
	out.UnionWith(b)
	return out
}

func (r reaching) Transfer(n *cfg.Node, in BitSet) BitSet {
	out := in.Clone()
	out.DiffWith(r.kill[n.ID])
	out.UnionWith(r.gen[n.ID])
	return out
}

// In returns the definitions reaching the entry of node n.
func (rd *ReachingDefs) In(n *cfg.Node) []*Def {
	var out []*Def
	rd.in[n.ID].ForEach(func(i int) {
		out = append(out, rd.Defs[i])
	})
	return out
}

// ReachingFor returns the definitions of sym that reach the entry of n.
func (rd *ReachingDefs) ReachingFor(n *cfg.Node, sym *cast.Symbol) []*Def {
	var out []*Def
	for _, id := range rd.defsBySym[sym.ID] {
		if rd.in[n.ID].Has(id) {
			out = append(out, rd.Defs[id])
		}
	}
	return out
}

// collectDefs finds the definitions performed by one CFG node.
func collectDefs(n *cfg.Node, aliases AliasOracle) []*Def {
	var defs []*Def
	switch n.Kind {
	case cfg.KindDecl:
		d := n.Decl
		if d.Sym == nil {
			return nil
		}
		kind := DefDecl
		if d.Init != nil {
			kind = DefInit
		}
		defs = append(defs, &Def{Node: n, Sym: d.Sym, Kind: kind, Value: d.Init})
		return defs
	case cfg.KindStmt, cfg.KindCond, cfg.KindPost:
		var root cast.Node
		switch {
		case n.Expr != nil:
			root = n.Expr
		case n.Stmt != nil:
			root = n.Stmt
		default:
			return nil
		}
		cast.Inspect(root, func(node cast.Node) bool {
			switch x := node.(type) {
			case *cast.AssignExpr:
				defs = append(defs, defsForLValue(n, x.LHS, x, aliases)...)
			case *cast.UnaryExpr:
				if x.Op == cast.UnaryPreInc || x.Op == cast.UnaryPreDec {
					defs = append(defs, defsForIncDec(n, x.Operand, x)...)
				}
			case *cast.PostfixExpr:
				defs = append(defs, defsForIncDec(n, x.Operand, x)...)
			case *cast.CallExpr:
				defs = append(defs, defsForCall(n, x)...)
			}
			return true
		})
		return defs
	default:
		return nil
	}
}

// defsForLValue produces the definitions caused by assigning to lv.
func defsForLValue(n *cfg.Node, lv cast.Expr, assign *cast.AssignExpr, aliases AliasOracle) []*Def {
	switch x := cast.Unparen(lv).(type) {
	case *cast.Ident:
		if x.Sym == nil {
			return nil
		}
		return []*Def{{Node: n, Sym: x.Sym, Kind: DefAssign, Value: assign}}
	case *cast.MemberExpr:
		base := cast.Unparen(x.Base)
		if id, ok := base.(*cast.Ident); ok && id.Sym != nil {
			// Member writes are strong for the member, weak for nothing
			// else; writes through p->f also count as a member def keyed
			// on the pointer symbol (the aggregate-node simplification).
			return []*Def{{Node: n, Sym: id.Sym, Member: x.Member, Kind: DefAssign, Value: assign}}
		}
		return nil
	case *cast.IndexExpr:
		base := cast.Unparen(x.Base)
		if id, ok := base.(*cast.Ident); ok && id.Sym != nil && ctype.IsArray(id.Sym.Type) {
			// Writing one element of an aggregate array: weak definition
			// of the whole object (no shape analysis, Section III-A).
			// Index writes through a *pointer* base modify the pointee,
			// not the pointer value, so they are not definitions of the
			// pointer symbol — Algorithm 1 tracks pointer values.
			return []*Def{{Node: n, Sym: id.Sym, Kind: DefAssign, Value: assign, Weak: true}}
		}
		return nil
	case *cast.UnaryExpr:
		if x.Op != cast.UnaryDeref {
			return nil
		}
		// *p = v defines whatever p may point to.
		if id, ok := cast.Unparen(x.Operand).(*cast.Ident); ok && id.Sym != nil {
			var defs []*Def
			for _, pt := range aliases.PointeesOf(id.Sym) {
				defs = append(defs, &Def{Node: n, Sym: pt, Kind: DefAliasWrite, Weak: true})
			}
			return defs
		}
		return nil
	default:
		return nil
	}
}

// defsForIncDec records an increment/decrement definition. The full
// expression is stored in Value so Algorithm 1 can apply the ±1 size
// correction (lines 16-20 operate on the same syntax when it reaches a use
// through a definition).
func defsForIncDec(n *cfg.Node, operand cast.Expr, expr cast.Expr) []*Def {
	if id, ok := cast.Unparen(operand).(*cast.Ident); ok && id.Sym != nil {
		return []*Def{{Node: n, Sym: id.Sym, Kind: DefIncDec, Value: expr}}
	}
	return nil
}

// defsForCall produces weak definitions for out-parameters: &x arguments.
func defsForCall(n *cfg.Node, call *cast.CallExpr) []*Def {
	var defs []*Def
	for _, a := range call.Args {
		u, ok := cast.Unparen(a).(*cast.UnaryExpr)
		if !ok || u.Op != cast.UnaryAddrOf {
			continue
		}
		if id, ok := cast.Unparen(u.Operand).(*cast.Ident); ok && id.Sym != nil {
			defs = append(defs, &Def{Node: n, Sym: id.Sym, Kind: DefCallOut, Weak: true})
		}
	}
	// Writes into a buffer through a char*/void* argument mutate the
	// pointed-to object, not the pointer value, so they do not define the
	// pointer symbol; pointer-value tracking is what Algorithm 1 needs.
	return defs
}
