package pointsto

import (
	"repro/internal/cast"
	"repro/internal/ctype"
)

// _heapAllocators is the set of library functions whose result is a fresh
// heap object.
var _heapAllocators = map[string]struct{}{
	"malloc": {}, "calloc": {}, "realloc": {}, "strdup": {}, "alloca": {},
}

// IsHeapAllocator reports whether the named function allocates heap
// memory. Exposed for Algorithm 1, which needs "def contains heap
// allocation" (lines 31, 47).
func IsHeapAllocator(name string) bool {
	_, ok := _heapAllocators[name]
	return ok
}

// generate walks the unit and emits inclusion constraints.
func (g *Graph) generate(unit *cast.TranslationUnit) {
	// Globals first so their nodes exist.
	for _, d := range unit.Decls {
		switch d.(type) {
		case *cast.VarDecl, *cast.MultiDecl:
			g.genNode(d)
		}
	}
	g.bodies = make([]genRange, len(unit.Funcs))
	for i, f := range unit.Funcs {
		g.bodies[i] = g.genBody(f)
	}
}

// genBody emits f's body's constraints and returns the range of nodes
// and constraints it generated.
func (g *Graph) genBody(f *cast.FuncDef) genRange {
	bodiesGenerated.Add(1)
	r := genRange{nodeLo: g.base + len(g.Nodes), consLo: len(g.constraints)}
	g.genNode(f.Body)
	r.nodeHi, r.consHi = g.base+len(g.Nodes), len(g.constraints)
	return r
}

// genNode emits the constraints of every declaration and assignment in
// n. Each is generated once, where the walk meets it: an assignment
// nested in a right side contributes only its left side's value there.
func (g *Graph) genNode(n cast.Node) {
	cast.Inspect(n, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.VarDecl:
			g.genDecl(x)
		case *cast.AssignExpr:
			if x.Op == cast.AssignPlain || x.Op == cast.AssignAdd || x.Op == cast.AssignSub {
				g.genAssign(x.LHS, x.RHS)
			}
		}
		return true
	})
}

func (g *Graph) genDecl(d *cast.VarDecl) {
	if d.Sym == nil {
		return
	}
	agg := ctype.IsArray(d.Type) || isRecordType(d.Type)
	node := g.nodeForSym(d.Sym, agg)
	if d.Init != nil {
		g.genAssignToNode(node, false, d.Init)
	}
}

func isRecordType(t ctype.Type) bool {
	_, ok := ctype.Unqualify(t).(*ctype.Record)
	return ok
}

// genAssign emits constraints for lhs = rhs.
func (g *Graph) genAssign(lhs, rhs cast.Expr) {
	target, indirect, ok := g.lvalueNode(lhs)
	if !ok {
		return
	}
	g.genAssignToNode(target, indirect, rhs)
}

// lvalueNode resolves an lvalue expression to a target node. indirect
// reports that the assignment stores through the node's pointees (*p = ...)
// rather than into the node itself.
func (g *Graph) lvalueNode(lv cast.Expr) (nodeID int, indirect bool, ok bool) {
	switch x := cast.Unparen(lv).(type) {
	case *cast.Ident:
		if x.Sym == nil {
			return 0, false, false
		}
		agg := ctype.IsArray(x.Sym.Type) || isRecordType(x.Sym.Type)
		return g.nodeForSym(x.Sym, agg), false, true
	case *cast.UnaryExpr:
		if x.Op != cast.UnaryDeref {
			return 0, false, false
		}
		if id, okc := cast.Unparen(x.Operand).(*cast.Ident); okc && id.Sym != nil {
			return g.nodeForSym(id.Sym, false), true, true
		}
		return 0, false, false
	case *cast.IndexExpr:
		// a[i] = v: writing into the aggregate a (or through pointer a).
		if id, okc := cast.Unparen(x.Base).(*cast.Ident); okc && id.Sym != nil {
			if ctype.IsArray(id.Sym.Type) {
				return g.nodeForSym(id.Sym, true), false, true
			}
			return g.nodeForSym(id.Sym, false), true, true
		}
		return 0, false, false
	case *cast.MemberExpr:
		base := cast.Unparen(x.Base)
		id, okc := base.(*cast.Ident)
		if !okc || id.Sym == nil {
			return 0, false, false
		}
		if x.Arrow {
			// p->f = v stores through p into its (aggregate) pointee.
			return g.nodeForSym(id.Sym, false), true, true
		}
		if g.fieldSensitive && isRecordType(id.Sym.Type) {
			// s.f = v writes into the member's own node.
			return g.nodeForField(id.Sym, x.Member), false, true
		}
		// s.f = v writes into the aggregate s.
		return g.nodeForSym(id.Sym, true), false, true
	default:
		return 0, false, false
	}
}

// genAssignToNode emits constraints flowing rhs into the target node.
func (g *Graph) genAssignToNode(target int, indirect bool, rhs cast.Expr) {
	for _, v := range g.rhsValues(rhs) {
		switch {
		case v.isAddr && !indirect:
			g.addConstraint(addrOf, target, v.node)
		case v.isAddr && indirect:
			// *p = &x: every pointee of p gains x. Model via a synthetic
			// copy through a fresh node holding {x}.
			tmp := g.newTempNode()
			g.addConstraint(addrOf, tmp, v.node)
			g.addConstraint(store, target, tmp)
		case v.isLoad && !indirect:
			g.addConstraint(load, target, v.node)
		case v.isLoad && indirect:
			tmp := g.newTempNode()
			g.addConstraint(load, tmp, v.node)
			g.addConstraint(store, target, tmp)
		case indirect:
			g.addConstraint(store, target, v.node)
		default:
			g.addConstraint(copyC, target, v.node)
		}
	}
}

// rhsValue describes one pointer-valued contribution of an RHS expression.
type rhsValue struct {
	node   int
	isAddr bool // the node itself is the pointee (dst = &node)
	isLoad bool // the value is *node
}

// rhsValues decomposes an expression into its pointer-valued contributions.
func (g *Graph) rhsValues(e cast.Expr) []rhsValue {
	switch x := cast.Unparen(e).(type) {
	case *cast.Ident:
		if x.Sym == nil {
			return nil
		}
		t := x.Sym.Type
		switch {
		case ctype.IsArray(t):
			// Array names decay to the address of the aggregate.
			return []rhsValue{{node: g.nodeForSym(x.Sym, true), isAddr: true}}
		case ctype.IsPointer(t) || isRecordType(t):
			agg := isRecordType(t)
			return []rhsValue{{node: g.nodeForSym(x.Sym, agg)}}
		default:
			return nil
		}
	case *cast.UnaryExpr:
		switch x.Op {
		case cast.UnaryAddrOf:
			inner := cast.Unparen(x.Operand)
			switch iv := inner.(type) {
			case *cast.Ident:
				if iv.Sym == nil {
					return nil
				}
				agg := ctype.IsArray(iv.Sym.Type) || isRecordType(iv.Sym.Type)
				return []rhsValue{{node: g.nodeForSym(iv.Sym, agg), isAddr: true}}
			case *cast.IndexExpr:
				// &a[i] ≈ a (+ i)
				return g.rhsValues(iv.Base)
			case *cast.MemberExpr:
				// &s.f ≈ &s under the aggregate model.
				if id, ok := cast.Unparen(iv.Base).(*cast.Ident); ok && id.Sym != nil {
					if iv.Arrow {
						return []rhsValue{{node: g.nodeForSym(id.Sym, false)}}
					}
					return []rhsValue{{node: g.nodeForSym(id.Sym, true), isAddr: true}}
				}
				return nil
			default:
				return nil
			}
		case cast.UnaryDeref:
			if id, ok := cast.Unparen(x.Operand).(*cast.Ident); ok && id.Sym != nil {
				return []rhsValue{{node: g.nodeForSym(id.Sym, false), isLoad: true}}
			}
			return nil
		default:
			return nil
		}
	case *cast.StringLit:
		return []rhsValue{{node: g.newStringNode(x), isAddr: true}}
	case *cast.CallExpr:
		if IsHeapAllocator(x.Callee()) {
			return []rhsValue{{node: g.newHeapNode(x), isAddr: true}}
		}
		return nil
	case *cast.BinaryExpr:
		// Pointer arithmetic: the pointer operand carries the value.
		if x.Op == cast.BinaryAdd || x.Op == cast.BinarySub {
			var out []rhsValue
			out = append(out, g.rhsValues(x.X)...)
			out = append(out, g.rhsValues(x.Y)...)
			return out
		}
		return nil
	case *cast.CastExpr:
		return g.rhsValues(x.Operand)
	case *cast.CondExpr:
		out := g.rhsValues(x.Then)
		return append(out, g.rhsValues(x.Else)...)
	case *cast.CommaExpr:
		return g.rhsValues(x.Y)
	case *cast.AssignExpr:
		// p = (q = r): the value is q's new value. genNode generates
		// q = r itself.
		return g.rhsValues(x.LHS)
	case *cast.IndexExpr:
		// v = a[i] loads an element; under the aggregate model this is a
		// load from the aggregate when elements are pointers.
		if id, ok := cast.Unparen(x.Base).(*cast.Ident); ok && id.Sym != nil {
			if ctype.IsArray(id.Sym.Type) {
				return []rhsValue{{node: g.nodeForSym(id.Sym, true)}}
			}
			return []rhsValue{{node: g.nodeForSym(id.Sym, false), isLoad: true}}
		}
		return nil
	case *cast.MemberExpr:
		if id, ok := cast.Unparen(x.Base).(*cast.Ident); ok && id.Sym != nil {
			if x.Arrow {
				return []rhsValue{{node: g.nodeForSym(id.Sym, false), isLoad: true}}
			}
			if g.fieldSensitive && isRecordType(id.Sym.Type) {
				return []rhsValue{{node: g.nodeForField(id.Sym, x.Member)}}
			}
			return []rhsValue{{node: g.nodeForSym(id.Sym, true)}}
		}
		return nil
	case *cast.PostfixExpr:
		return g.rhsValues(x.Operand)
	default:
		return nil
	}
}
