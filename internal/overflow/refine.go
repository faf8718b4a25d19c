package overflow

import (
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/ctype"
	"repro/internal/interval"
)

// Transfer is the node dispatch both oracles share: declarations go to
// decl; expression statements, returned values, conditions and loop
// post-expressions go to expr. An unreached in-state passes through.
func Transfer[V Value[V]](n *cfg.Node, in Env[V], decl func(Env[V], *cast.VarDecl) Env[V], expr func(Env[V], cast.Expr) Env[V]) Env[V] {
	if !in.Reached() {
		return in
	}
	switch n.Kind {
	case cfg.KindDecl:
		return decl(in, n.Decl)
	case cfg.KindStmt:
		switch s := n.Stmt.(type) {
		case *cast.ExprStmt:
			return expr(in, s.X)
		case *cast.ReturnStmt:
			if s.Result != nil {
				return expr(in, s.Result)
			}
		}
		return in
	case cfg.KindCond, cfg.KindPost:
		if n.Expr != nil {
			return expr(in, n.Expr)
		}
	}
	return in
}

// Effects is what an oracle supplies to the expression-effect walk,
// Effect: the state effects of an assignment (after its right side's),
// of an increment or decrement (delta +1 or -1 applied to operand at
// site), and of a call (after its arguments'), plus Value, which sees
// each binary and cast node under the state after its operands' effects.
type Effects[V Value[V]] interface {
	Assign(st Env[V], x *cast.AssignExpr) Env[V]
	IncDec(st Env[V], site, operand cast.Expr, delta int64) Env[V]
	Call(st Env[V], x *cast.CallExpr) Env[V]
	Value(st Env[V], x cast.Expr)
}

// Effect applies the state effects of evaluating e, left operand first:
// assignments, increments, decrements and calls, wherever they nest.
// The two arms of a conditional run from the same state and join. Value
// computation is each oracle's own, separate evaluator.
func Effect[V Value[V]](fx Effects[V], st Env[V], e cast.Expr) Env[V] {
	switch x := cast.Unparen(e).(type) {
	case *cast.AssignExpr:
		return fx.Assign(Effect(fx, st, x.RHS), x)
	case *cast.UnaryExpr:
		switch x.Op {
		case cast.UnaryPreInc:
			return fx.IncDec(st, x, x.Operand, +1)
		case cast.UnaryPreDec:
			return fx.IncDec(st, x, x.Operand, -1)
		}
		return Effect(fx, st, x.Operand)
	case *cast.PostfixExpr:
		switch x.Op {
		case cast.PostfixInc:
			return fx.IncDec(st, x, x.Operand, +1)
		case cast.PostfixDec:
			return fx.IncDec(st, x, x.Operand, -1)
		}
	case *cast.CallExpr:
		for _, a := range x.Args {
			st = Effect(fx, st, a)
		}
		return fx.Call(st, x)
	case *cast.CommaExpr:
		return Effect(fx, Effect(fx, st, x.X), x.Y)
	case *cast.BinaryExpr:
		st = Effect(fx, Effect(fx, st, x.X), x.Y)
		fx.Value(st, x)
	case *cast.CondExpr:
		st = Effect(fx, st, x.Cond)
		return Effect(fx, st, x.Then).Join(Effect(fx, st, x.Else))
	case *cast.CastExpr:
		st = Effect(fx, st, x.Operand)
		fx.Value(st, x)
	case *cast.IndexExpr:
		return Effect(fx, Effect(fx, st, x.Base), x.Index)
	case *cast.MemberExpr:
		return Effect(fx, st, x.Base)
	}
	return st
}

// RefineEdge narrows st along a labeled branch edge using the
// condition expression; eval computes an expression's integer interval
// under a state. Refinement narrows value intervals only.
func RefineEdge[V Value[V]](from, to *cfg.Node, st Env[V], eval func(Env[V], cast.Expr) interval.Interval) Env[V] {
	if !st.Reached() || from.Kind != cfg.KindCond || !from.Branching || from.Expr == nil {
		return st
	}
	return refine(st, from.Expr, from.IsTrueSucc(to), eval)
}

// refine narrows st under the assumption that cond evaluates to truth.
// Contradictory combinations return the unreached state.
func refine[V Value[V]](st Env[V], cond cast.Expr, truth bool, eval func(Env[V], cast.Expr) interval.Interval) Env[V] {
	var unreached Env[V]
	switch x := cast.Unparen(cond).(type) {
	case *cast.IntLit:
		if (x.Value != 0) != truth {
			return unreached
		}
		return st
	case *cast.CharLit:
		if (x.Value != 0) != truth {
			return unreached
		}
		return st
	case *cast.UnaryExpr:
		if x.Op == cast.UnaryNot {
			return refine(st, x.Operand, !truth, eval)
		}
		return st
	case *cast.Ident:
		if x.Sym == nil {
			return st
		}
		if x.Sym.Kind == cast.SymEnumConst {
			if v, ok := ConstOf(x); ok && (v != 0) != truth {
				return unreached
			}
			return st
		}
		if !IsIntVar(x.Sym) {
			return st
		}
		v := st.Int(x.Sym.ID)
		if truth {
			if z, ok := v.Exact(); ok && z == 0 {
				return unreached
			}
			if v.Lo == 0 {
				v.Lo = 1 // nonzero, and no negatives were possible
				return st.WithInt(x.Sym.ID, v)
			}
			return st
		}
		nv := v.Meet(interval.Const(0))
		if nv.IsEmpty() {
			return unreached
		}
		return st.WithInt(x.Sym.ID, nv)
	case *cast.BinaryExpr:
		switch x.Op {
		case cast.BinaryLAnd:
			if truth {
				return refine(refine(st, x.X, true, eval), x.Y, true, eval)
			}
			return st
		case cast.BinaryLOr:
			if !truth {
				return refine(refine(st, x.X, false, eval), x.Y, false, eval)
			}
			return st
		case cast.BinaryLt, cast.BinaryLe, cast.BinaryGt, cast.BinaryGe,
			cast.BinaryEq, cast.BinaryNe:
			op := x.Op
			if !truth {
				op = negateCompare(op)
			}
			st = refineSide(st, x.X, op, eval(st, x.Y))
			if !st.Reached() {
				return st
			}
			return refineSide(st, x.Y, flipCompare(op), eval(st, x.X))
		}
	}
	return st
}

// refineSide narrows the integer variable e under "e op bound".
func refineSide[V Value[V]](st Env[V], e cast.Expr, op cast.BinaryOp, bound interval.Interval) Env[V] {
	id, ok := cast.Unparen(e).(*cast.Ident)
	if !ok || id.Sym == nil || !IsIntVar(id.Sym) || id.Sym.Kind == cast.SymEnumConst {
		return st
	}
	v := st.Int(id.Sym.ID)
	switch op {
	case cast.BinaryLt:
		v = v.Meet(interval.Range(interval.NegInf, interval.Dec(bound.Hi)))
	case cast.BinaryLe:
		v = v.Meet(interval.Range(interval.NegInf, bound.Hi))
	case cast.BinaryGt:
		v = v.Meet(interval.Range(interval.Inc(bound.Lo), interval.PosInf))
	case cast.BinaryGe:
		v = v.Meet(interval.Range(bound.Lo, interval.PosInf))
	case cast.BinaryEq:
		v = v.Meet(bound)
	case cast.BinaryNe:
		if z, exact := bound.Exact(); exact {
			if cur, curExact := v.Exact(); curExact && cur == z {
				var unreached Env[V]
				return unreached
			}
			if v.Lo == z {
				v.Lo = z + 1
			} else if v.Hi == z {
				v.Hi = z - 1
			}
		}
	default:
		return st
	}
	if v.IsEmpty() {
		var unreached Env[V]
		return unreached
	}
	return st.WithInt(id.Sym.ID, v)
}

func negateCompare(op cast.BinaryOp) cast.BinaryOp {
	switch op {
	case cast.BinaryLt:
		return cast.BinaryGe
	case cast.BinaryLe:
		return cast.BinaryGt
	case cast.BinaryGt:
		return cast.BinaryLe
	case cast.BinaryGe:
		return cast.BinaryLt
	case cast.BinaryEq:
		return cast.BinaryNe
	case cast.BinaryNe:
		return cast.BinaryEq
	}
	return op
}

func flipCompare(op cast.BinaryOp) cast.BinaryOp {
	switch op {
	case cast.BinaryLt:
		return cast.BinaryGt
	case cast.BinaryLe:
		return cast.BinaryGe
	case cast.BinaryGt:
		return cast.BinaryLt
	case cast.BinaryGe:
		return cast.BinaryLe
	}
	return op
}

// IsIntVar reports whether the symbol holds an integer value the oracles
// track.
func IsIntVar(sym *cast.Symbol) bool {
	return sym != nil && ctype.IsInteger(sym.Type)
}

// ConstOf evaluates compile-time integer constants (literals, sizeof,
// enum constants).
func ConstOf(e cast.Expr) (int64, bool) {
	switch x := cast.Unparen(e).(type) {
	case *cast.IntLit:
		return x.Value, true
	case *cast.CharLit:
		return int64(x.Value), true
	case *cast.SizeofExpr:
		if x.OfType != nil && x.OfType.Size() >= 0 {
			return int64(x.OfType.Size()), true
		}
		if x.Operand != nil && x.Operand.Type() != nil && x.Operand.Type().Size() >= 0 {
			return int64(x.Operand.Type().Size()), true
		}
	case *cast.Ident:
		if x.Sym != nil && x.Sym.Kind == cast.SymEnumConst {
			if en, ok := ctype.Unqualify(x.Sym.Type).(*ctype.Enum); ok {
				for _, c := range en.Consts {
					if c.Name == x.Name {
						return c.Value, true
					}
				}
			}
		}
	}
	return 0, false
}
