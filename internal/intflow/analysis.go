package intflow

import (
	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/ctype"
	"repro/internal/interval"
	"repro/internal/overflow"
)

// iproblem adapts one function (under one calling context) to the
// generic dataflow solver. seed carries the parameter values of the
// context; globalIDs the symbol IDs of file-scope objects (havocked at
// unmodeled calls); sinks the allocation-size argument positions per
// callee (builtins plus call-graph-discovered wrappers).
//
// chk is nil while solving. The checker replays the same transfer
// functions over the solved in-states with chk set, so findings are
// produced by exactly the code path that computed the fixpoint.
type iproblem struct {
	overflow.Lattice[ival]
	fn        *cast.FuncDef
	seed      map[int]ival
	globalIDs map[int]bool
	sinks     map[string][]int
	mm        mayModifier
	chk       *ichecker
}

// mayModifier is the slice of interproc facts the havoc logic needs.
type mayModifier interface {
	MayModifyArg(call *cast.CallExpr, idx int) bool
}

func (p *iproblem) Entry() overflow.Env[ival] { return overflow.NewEnv(p.seed) }

// Transfer is the single dispatch shared by the solver (chk == nil) and
// the finding replay (chk != nil).
func (p *iproblem) Transfer(n *cfg.Node, in overflow.Env[ival]) overflow.Env[ival] {
	return overflow.Transfer(n, in, p.transferDecl, p.transferExpr)
}

func (p *iproblem) transferExpr(st overflow.Env[ival], e cast.Expr) overflow.Env[ival] {
	return overflow.Effect(p, st, e)
}

func (p *iproblem) FlowEdge(from, to *cfg.Node, st overflow.Env[ival]) overflow.Env[ival] {
	return overflow.RefineEdge(from, to, st, p.evalInt)
}

// --- declarations -----------------------------------------------------------

func (p *iproblem) transferDecl(st overflow.Env[ival], d *cast.VarDecl) overflow.Env[ival] {
	if d == nil {
		return st
	}
	// The initializer's effects (calls, assignments, wraps) apply whatever
	// the declared type is — `char *p = malloc(n * sz)` must still reach
	// the allocation-sink check.
	if d.Init != nil {
		st = p.transferExpr(st, d.Init)
	}
	if d.Sym == nil || !overflow.IsIntVar(d.Sym) {
		return st
	}
	if d.Init == nil {
		return st.Set(d.Sym.ID, topIval())
	}
	v := p.eval(st, d.Init)
	return st.Set(d.Sym.ID, p.convert(d.Init, v, d.Sym.Type))
}

// --- expression effects -----------------------------------------------------

// Value reports, in the replay pass, the wraps of a binary or cast node
// whose value no assignment or call consumes.
func (p *iproblem) Value(st overflow.Env[ival], x cast.Expr) {
	if p.chk != nil {
		p.eval(st, x)
	}
}

// Assign applies an assignment's store, after its right side's effects
// (overflow.Effects).
func (p *iproblem) Assign(st overflow.Env[ival], x *cast.AssignExpr) overflow.Env[ival] {
	id, ok := cast.Unparen(x.LHS).(*cast.Ident)
	if !ok || id.Sym == nil || !overflow.IsIntVar(id.Sym) || id.Sym.Kind == cast.SymEnumConst {
		// Stores through arrays/pointers are not tracked, but the RHS
		// may still wrap — evaluate it for the replay pass.
		if p.chk != nil {
			p.eval(st, x.RHS)
		}
		return st
	}
	old := st.Get(id.Sym.ID)
	rhs := p.eval(st, x.RHS)
	var v ival
	switch x.Op {
	case cast.AssignPlain:
		v = rhs
	case cast.AssignAdd, cast.AssignSub, cast.AssignMul, cast.AssignDiv,
		cast.AssignRem, cast.AssignShl, cast.AssignShr,
		cast.AssignAnd, cast.AssignXor, cast.AssignOr:
		v = p.evalBinop(x, compoundOp(x.Op), old, rhs)
	default:
		v = topIval()
	}
	return st.Set(id.Sym.ID, p.convert(x, v, id.Sym.Type))
}

// compoundOp maps a compound-assignment operator to its binary form.
func compoundOp(op cast.AssignOp) cast.BinaryOp {
	switch op {
	case cast.AssignAdd:
		return cast.BinaryAdd
	case cast.AssignSub:
		return cast.BinarySub
	case cast.AssignMul:
		return cast.BinaryMul
	case cast.AssignDiv:
		return cast.BinaryDiv
	case cast.AssignRem:
		return cast.BinaryRem
	case cast.AssignShl:
		return cast.BinaryShl
	case cast.AssignShr:
		return cast.BinaryShr
	case cast.AssignAnd:
		return cast.BinaryAnd
	case cast.AssignXor:
		return cast.BinaryXor
	case cast.AssignOr:
		return cast.BinaryOr
	}
	return cast.BinaryInvalid
}

// IncDec steps an integer variable by delta, wrap-checked at site.
func (p *iproblem) IncDec(st overflow.Env[ival], site, operand cast.Expr, delta int64) overflow.Env[ival] {
	id, ok := cast.Unparen(operand).(*cast.Ident)
	if !ok || id.Sym == nil || !overflow.IsIntVar(id.Sym) {
		return st
	}
	old := st.Get(id.Sym.ID)
	raw := old.v.AddConst(delta)
	opName := "increment"
	if delta < 0 {
		opName = "decrement"
	}
	v := p.wrapCheck(site, raw, id.Sym.Type, opName, "")
	v = inheritTaint(v, old)
	return st.Set(id.Sym.ID, v)
}

// --- call effects -----------------------------------------------------------

// Call checks an allocation sink's size arguments and havocs what a
// user call may change.
func (p *iproblem) Call(st overflow.Env[ival], call *cast.CallExpr) overflow.Env[ival] {
	name := call.Callee()
	// Sink check: a possibly-wrapped value flowing into an allocation
	// size is CWE-680, whatever the call's other effects are.
	if positions, isSink := p.sinks[name]; isSink {
		for _, idx := range positions {
			arg := call.Arg(idx)
			if arg == nil {
				continue
			}
			av := p.eval(st, arg)
			if av.wrapped && p.chk != nil {
				p.chk.report680(call, arg, av)
			}
		}
	} else if p.chk != nil {
		// Non-sink calls: still surface wraps inside argument expressions.
		for _, a := range call.Args {
			p.eval(st, a)
		}
	}
	if f, isLib := backend.Library(name); isLib && f.NoEffect {
		return st
	}
	return p.havocUserCall(st, call)
}

// havocUserCall forgets what a user (or unmodeled) call may change:
// integer variables passed by address — unless the may-modify facts
// prove the callee leaves that argument alone — and every global
// integer.
func (p *iproblem) havocUserCall(st overflow.Env[ival], call *cast.CallExpr) overflow.Env[ival] {
	for i, a := range call.Args {
		u, ok := cast.Unparen(a).(*cast.UnaryExpr)
		if !ok || u.Op != cast.UnaryAddrOf {
			continue
		}
		id, ok := cast.Unparen(u.Operand).(*cast.Ident)
		if !ok || id.Sym == nil || !overflow.IsIntVar(id.Sym) {
			continue
		}
		if p.mm != nil && !p.mm.MayModifyArg(call, i) {
			continue // proven read-only: the value survives the call
		}
		st = st.Set(id.Sym.ID, topIval())
	}
	return st.Map(func(id int, v ival) ival {
		if p.globalIDs[id] {
			return topIval()
		}
		return v
	})
}

// --- pure evaluation --------------------------------------------------------

// eval computes the abstract value of e under st, wrap-checking every
// arithmetic step against the expression's C type and reporting through
// the attached checker (when one is attached).
func (p *iproblem) eval(st overflow.Env[ival], e cast.Expr) ival {
	if e == nil {
		return topIval()
	}
	switch x := cast.Unparen(e).(type) {
	case *cast.IntLit:
		return ival{v: interval.Const(x.Value)}
	case *cast.CharLit:
		return ival{v: interval.Const(int64(x.Value))}
	case *cast.Ident:
		if x.Sym == nil {
			return topIval()
		}
		if x.Sym.Kind == cast.SymEnumConst {
			if v, ok := overflow.ConstOf(x); ok {
				return ival{v: interval.Const(v)}
			}
		}
		if overflow.IsIntVar(x.Sym) {
			return st.Get(x.Sym.ID)
		}
		return topIval()
	case *cast.UnaryExpr:
		switch x.Op {
		case cast.UnaryMinus:
			ov := p.eval(st, x.Operand)
			out := p.wrapCheck(x, ov.v.Neg(), x.Type(), "negation", "")
			return inheritTaint(out, ov)
		case cast.UnaryPlus:
			return p.eval(st, x.Operand)
		case cast.UnaryNot:
			return ival{v: interval.Range(0, 1)}
		case cast.UnaryBitNot:
			ov := p.eval(st, x.Operand)
			return inheritTaint(topIval(), ov)
		case cast.UnaryPreInc:
			return ival{v: p.eval(st, x.Operand).v.AddConst(1)}
		case cast.UnaryPreDec:
			return ival{v: p.eval(st, x.Operand).v.AddConst(-1)}
		}
		return topIval()
	case *cast.PostfixExpr:
		return p.eval(st, x.Operand)
	case *cast.SizeofExpr:
		if v, ok := overflow.ConstOf(x); ok {
			return ival{v: interval.Const(v)}
		}
		return ival{v: interval.Range(0, interval.PosInf)}
	case *cast.BinaryExpr:
		a, b := p.eval(st, x.X), p.eval(st, x.Y)
		return p.evalBinop(x, x.Op, a, b)
	case *cast.CastExpr:
		return p.convert(x, p.eval(st, x.Operand), x.ToType)
	case *cast.AssignExpr:
		// The value of an assignment is the RHS converted to the LHS
		// type; the store itself is transferAssign's job.
		if id, ok := cast.Unparen(x.LHS).(*cast.Ident); ok && id.Sym != nil && overflow.IsIntVar(id.Sym) {
			return p.convert(x, p.eval(st, x.RHS), id.Sym.Type)
		}
		return p.eval(st, x.RHS)
	case *cast.CommaExpr:
		return p.eval(st, x.Y)
	case *cast.CondExpr:
		return p.eval(st, x.Then).Join(p.eval(st, x.Else))
	case *cast.CallExpr:
		if x.Callee() == "strlen" {
			return ival{v: interval.Range(0, interval.PosInf)}
		}
		return topIval()
	}
	return topIval()
}

// evalInt is eval's interval, for the branch refiner.
func (p *iproblem) evalInt(st overflow.Env[ival], e cast.Expr) interval.Interval {
	return p.eval(st, e).v
}

// evalBinop computes site's value for op over a and b, wrap-checking
// the arithmetic operators against the site's result type.
func (p *iproblem) evalBinop(site cast.Expr, op cast.BinaryOp, a, b ival) ival {
	var raw interval.Interval
	checked := true
	switch op {
	case cast.BinaryAdd:
		raw = a.v.Add(b.v)
	case cast.BinarySub:
		raw = a.v.Sub(b.v)
	case cast.BinaryMul:
		raw = a.v.MulRange(b.v)
	case cast.BinaryShl:
		k, ok := b.v.Exact()
		if !ok || k < 0 || k > 62 {
			return inheritTaint(topIval(), a)
		}
		raw = a.v.MulRange(interval.Const(int64(1) << uint(k)))
	case cast.BinaryDiv:
		return inheritTaint(ival{v: a.v.Div(b.v)}, a)
	case cast.BinaryShr:
		return inheritTaint(ival{v: a.v.Shr(b.v)}, a)
	case cast.BinaryRem:
		if k, ok := b.v.Exact(); ok && k > 0 && a.v.Lo >= 0 {
			return inheritTaint(ival{v: interval.Range(0, k-1)}, a)
		}
		return inheritTaint(topIval(), a)
	case cast.BinaryAnd:
		if m, ok := b.v.Exact(); ok && m >= 0 {
			return ival{v: interval.Range(0, m)}
		}
		if m, ok := a.v.Exact(); ok && m >= 0 {
			return ival{v: interval.Range(0, m)}
		}
		return inheritTaint(inheritTaint(topIval(), a), b)
	case cast.BinaryXor, cast.BinaryOr:
		return inheritTaint(inheritTaint(topIval(), a), b)
	case cast.BinaryLt, cast.BinaryGt, cast.BinaryLe, cast.BinaryGe,
		cast.BinaryEq, cast.BinaryNe, cast.BinaryLAnd, cast.BinaryLOr:
		return ival{v: interval.Range(0, 1)}
	default:
		checked = false
		raw = interval.Top()
	}
	var out ival
	if checked {
		guard := ""
		if p.chk != nil {
			guard = p.chk.guardForBinop(site, op)
		}
		out = p.wrapCheck(site, raw, site.Type(), opName(op), guard)
	} else {
		out = topIval()
	}
	return inheritTaint(inheritTaint(out, a), b)
}

// convert models an implicit or explicit conversion of v to the target
// type, flagging truncation (CWE-190) and negative-to-unsigned
// conversion (CWE-191).
func (p *iproblem) convert(site cast.Expr, v ival, to ctype.Type) ival {
	if to == nil || !ctype.IsInteger(to) {
		return v
	}
	guard := ""
	if p.chk != nil {
		guard = p.chk.guardForConvert(site, v.v, to)
	}
	out := p.wrapCheck(site, v.v, to, "conversion", guard)
	return inheritTaint(out, v)
}

// wrapCheck compares the mathematically exact interval raw against the
// representable range of t. In range: the value passes through. Out of
// range: the result is the full type range, marked wrapped, and (with a
// checker attached) a CWE-190/191 finding is reported — definite when
// every value in raw is out of range, possible when raw straddles the
// boundary. Sentinel bounds produced by widening are skipped on their
// own side, so saturating loop counters do not drown the report in
// false positives.
func (p *iproblem) wrapCheck(site cast.Expr, raw interval.Interval, t ctype.Type, opName, guard string) ival {
	lo, hi, ok := typeBounds(t)
	if !ok || raw.IsEmpty() {
		return ival{v: raw}
	}
	var over, overDef, under, underDef bool
	if hi < interval.PosInf {
		switch {
		case raw.Lo > hi:
			over, overDef = true, true
		case raw.Hi > hi && raw.Hi < interval.PosInf:
			over = true
		}
	}
	switch {
	case raw.Hi < lo:
		under, underDef = true, true
	case raw.Lo < lo && raw.Lo > interval.NegInf:
		under = true
	}
	if !over && !under {
		return ival{v: raw.Meet(interval.Range(lo, hi))}
	}
	out := ival{
		v:        interval.Range(lo, hi),
		wrapped:  true,
		definite: overDef || underDef,
		guard:    guard,
	}
	if p.chk != nil {
		if over {
			p.chk.reportWrap(site, 190, overDef, raw, t, lo, hi, opName, guard)
		}
		if under {
			p.chk.reportWrap(site, 191, underDef, raw, t, lo, hi, opName, guard)
		}
	}
	return out
}

// inheritTaint propagates upstream wrap taint into a derived value.
func inheritTaint(out, in ival) ival {
	if !in.wrapped {
		return out
	}
	out.wrapped = true
	out.definite = out.definite || in.definite
	if out.guard == "" {
		out.guard = in.guard
	}
	return out
}

func opName(op cast.BinaryOp) string {
	switch op {
	case cast.BinaryAdd:
		return "addition"
	case cast.BinarySub:
		return "subtraction"
	case cast.BinaryMul:
		return "multiplication"
	case cast.BinaryShl:
		return "left shift"
	}
	return "arithmetic"
}
