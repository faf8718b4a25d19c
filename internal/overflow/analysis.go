package overflow

import (
	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/ctype"
	"repro/internal/interval"
)

// funcProblem adapts one function (under one calling context) to the
// generic dataflow solver. seed carries the parameter intervals of the
// context; globals holds the unit-wide seeds for global arrays, and
// globalIDs the symbol IDs of every file-scope object (they are havocked
// at unmodeled calls).
type funcProblem struct {
	Lattice[varState]
	fn        *cast.FuncDef
	seed      map[int]varState
	globals   map[int]varState
	globalIDs map[int]bool
}

func (p *funcProblem) Entry() Env[varState] { return NewEnv(p.globals, p.seed) }

func (p *funcProblem) Transfer(n *cfg.Node, in Env[varState]) Env[varState] {
	return Transfer(n, in, p.transferDecl, p.transferExpr)
}

func (p *funcProblem) transferExpr(st Env[varState], e cast.Expr) Env[varState] {
	return Effect(p, st, e)
}

func (p *funcProblem) FlowEdge(from, to *cfg.Node, st Env[varState]) Env[varState] {
	return RefineEdge(from, to, st, evalInt)
}

// --- declarations -----------------------------------------------------------

func (p *funcProblem) transferDecl(st Env[varState], d *cast.VarDecl) Env[varState] {
	if d == nil || d.Sym == nil {
		return st
	}
	t := d.Sym.Type
	switch {
	case ctype.IsArray(t):
		vs := topVar()
		if sz := t.Size(); sz >= 0 {
			vs.size = interval.Const(int64(sz))
		}
		vs.off = interval.Const(0)
		vs.reg = regStack
		if d.Init != nil {
			if lit, ok := cast.Unparen(d.Init).(*cast.StringLit); ok {
				vs.strl = interval.Const(int64(len(lit.Value)))
			}
		}
		return st.Set(d.Sym.ID, vs)
	case ctype.IsPointer(t):
		if d.Init == nil {
			return st.Set(d.Sym.ID, topVar())
		}
		st = p.transferExpr(st, d.Init)
		if vs, ok := evalPtr(st, d.Init); ok {
			return st.Set(d.Sym.ID, vs)
		}
		return st.Set(d.Sym.ID, topVar())
	case ctype.IsInteger(t):
		if d.Init == nil {
			return st.Set(d.Sym.ID, topVar())
		}
		st = p.transferExpr(st, d.Init)
		vs := topVar()
		vs.val = evalInt(st, d.Init)
		return st.Set(d.Sym.ID, vs)
	}
	return st
}

// --- expression effects -----------------------------------------------------

// Assign applies an assignment's store, after its right side's effects
// (Effects).
func (p *funcProblem) Assign(st Env[varState], x *cast.AssignExpr) Env[varState] {
	lhs := cast.Unparen(x.LHS)
	switch l := lhs.(type) {
	case *cast.Ident:
		if l.Sym == nil {
			return st
		}
		switch {
		case ctype.IsPointer(l.Sym.Type):
			return p.assignPtr(st, l.Sym, x)
		case IsIntVar(l.Sym):
			return p.assignInt(st, l.Sym, x)
		}
		return st
	case *cast.IndexExpr:
		return p.storeThrough(st, l.Base, evalInt(st, l.Index), x)
	case *cast.UnaryExpr:
		if l.Op == cast.UnaryDeref {
			return p.storeThrough(st, l.Operand, interval.Const(0), x)
		}
	}
	return st
}

func (p *funcProblem) assignPtr(st Env[varState], sym *cast.Symbol, x *cast.AssignExpr) Env[varState] {
	old := st.Get(sym.ID)
	switch x.Op {
	case cast.AssignPlain:
		if vs, ok := evalPtr(st, x.RHS); ok {
			return st.Set(sym.ID, vs)
		}
		return st.Set(sym.ID, topVar())
	case cast.AssignAdd, cast.AssignSub:
		delta := evalInt(st, x.RHS).MulConst(elemSize(sym.Type))
		if x.Op == cast.AssignSub {
			delta = delta.Neg()
		}
		old.off = old.off.Add(delta)
		return st.Set(sym.ID, old)
	}
	return st.Set(sym.ID, topVar())
}

func (p *funcProblem) assignInt(st Env[varState], sym *cast.Symbol, x *cast.AssignExpr) Env[varState] {
	old := st.Get(sym.ID)
	rhs := evalInt(st, x.RHS)
	vs := topVar()
	switch x.Op {
	case cast.AssignPlain:
		vs.val = rhs
	case cast.AssignAdd:
		vs.val = old.val.Add(rhs)
	case cast.AssignSub:
		vs.val = old.val.Sub(rhs)
	default:
		vs.val = interval.Top()
	}
	return st.Set(sym.ID, vs)
}

// IncDec steps a pointer's offset or an integer's value by delta.
func (p *funcProblem) IncDec(st Env[varState], _, operand cast.Expr, delta int64) Env[varState] {
	id, ok := cast.Unparen(operand).(*cast.Ident)
	if !ok || id.Sym == nil {
		return st
	}
	vs := st.Get(id.Sym.ID)
	switch {
	case ctype.IsPointer(id.Sym.Type):
		vs.off = vs.off.AddConst(delta * elemSize(id.Sym.Type))
	case IsIntVar(id.Sym):
		vs.val = vs.val.AddConst(delta)
	default:
		return st
	}
	return st.Set(id.Sym.ID, vs)
}

// storeThrough models a store base[idx] = v (or *base = v with idx 0): it
// updates the first-NUL interval of the stored-through variable.
func (p *funcProblem) storeThrough(st Env[varState], base cast.Expr, idx interval.Interval, x *cast.AssignExpr) Env[varState] {
	sym, extra, ok := resolveVar(st, base)
	if !ok {
		return st
	}
	vs := st.Get(sym.ID)
	scale := int64(1)
	if t := typeOf(cast.Unparen(base)); t != nil {
		scale = elemSize(ctype.Decay(t))
	}
	if scale != 1 {
		// Only byte stores move NUL terminators the analysis understands.
		vs.strl = interval.Range(0, interval.PosInf)
		return st.Set(sym.ID, vs)
	}
	pos := vs.off.Add(extra).Add(idx)
	v := interval.Top()
	if x.Op == cast.AssignPlain {
		v = evalInt(st, x.RHS)
	}
	vs.strl = storeStrl(vs.strl, pos, v)
	return st.Set(sym.ID, vs)
}

// storeStrl applies the first-NUL transfer for a 1-byte store of value v
// at object-relative position pos over the old first-NUL interval s.
func storeStrl(s, pos, v interval.Interval) interval.Interval {
	if pos.IsEmpty() {
		return s
	}
	zero := false
	nonzero := false
	if n, ok := v.Exact(); ok {
		zero = n == 0
		nonzero = n != 0
	} else if v.Lo > 0 || v.Hi < 0 {
		nonzero = true
	}
	switch {
	case zero:
		// A NUL lands somewhere in [pos.Lo, pos.Hi]: the first NUL moves to
		// min(old, written position).
		return interval.Interval{Lo: min(s.Lo, pos.Lo), Hi: min(s.Hi, pos.Hi)}.ClampMin(0)
	case nonzero:
		switch {
		case pos.Hi < s.Lo:
			return s // written strictly before the first NUL: unchanged
		case pos.Lo == pos.Hi && pos.Lo == s.Lo:
			// Definitely overwrites the earliest possible NUL position.
			return interval.Range(interval.Inc(s.Lo), interval.PosInf)
		default:
			return interval.Range(s.Lo, interval.PosInf)
		}
	default:
		// Unknown byte: join of the zero and nonzero outcomes.
		z := interval.Interval{Lo: min(s.Lo, pos.Lo), Hi: min(s.Hi, pos.Hi)}.ClampMin(0)
		return z.Join(interval.Range(s.Lo, interval.PosInf))
	}
}

// Value is a no-op: the buffer oracle checks accesses on its own walk.
func (*funcProblem) Value(Env[varState], cast.Expr) {}

// --- library call effects ---------------------------------------------------

// Call applies a library call's modeled effect, or havocs what a user
// call may change.
func (p *funcProblem) Call(st Env[varState], call *cast.CallExpr) Env[varState] {
	switch call.Callee() {
	case "memset":
		return p.memsetEffect(st, call.Arg(0), evalInt(st, call.Arg(1)), evalInt(st, call.Arg(2)))
	case "strcpy", "stpcpy":
		return p.setStrlFromCopy(st, call.Arg(0), strlenOf(st, call.Arg(1)))
	case "strcat":
		return p.strcatEffect(st, call.Arg(0), strlenOf(st, call.Arg(1)), interval.Top())
	case "strncat":
		return p.strcatEffect(st, call.Arg(0), strlenOf(st, call.Arg(1)), evalInt(st, call.Arg(2)))
	case "sprintf":
		return p.setStrlFromCopy(st, call.Arg(0), formatLength(st, call.Arg(1), call.Args, 2))
	}
	f, isLib := backend.Library(call.Callee())
	if !isLib || !f.NoEffect {
		return p.havocUserCall(st, call)
	}
	// Any other library write leaves the destination's NUL unknown.
	for _, i := range f.Writes {
		st = p.havocStrl(st, call.Arg(i))
	}
	return st
}

// setStrlFromCopy sets the destination's first NUL to off + len for a
// terminating copy of len bytes (strcpy/sprintf families).
func (p *funcProblem) setStrlFromCopy(st Env[varState], dst cast.Expr, length interval.Interval) Env[varState] {
	sym, extra, ok := resolveVar(st, dst)
	if !ok {
		return st
	}
	vs := st.Get(sym.ID)
	base := vs.off.Add(extra)
	if length.Hi >= interval.PosInf || base.IsTop() {
		vs.strl = interval.Range(max(0, base.Lo), interval.PosInf)
	} else {
		vs.strl = base.Add(length.ClampMin(0)).ClampMin(0)
	}
	return st.Set(sym.ID, vs)
}

// strcatEffect appends: the first NUL moves from strl to strl + len (or at
// most strl + n for strncat).
func (p *funcProblem) strcatEffect(st Env[varState], dst cast.Expr, srcLen, n interval.Interval) Env[varState] {
	sym, _, ok := resolveVar(st, dst)
	if !ok {
		return st
	}
	vs := st.Get(sym.ID)
	add := srcLen
	if n.Hi < interval.PosInf && (add.Hi >= interval.PosInf || add.Hi > n.Hi) {
		add = interval.Interval{Lo: max(0, min(add.Lo, n.Lo)), Hi: n.Hi}
	}
	if add.Hi >= interval.PosInf || vs.strl.Hi >= interval.PosInf {
		vs.strl = interval.Range(vs.strl.Lo, interval.PosInf)
	} else {
		vs.strl = vs.strl.Add(add.ClampMin(0)).ClampMin(0)
	}
	return st.Set(sym.ID, vs)
}

func (p *funcProblem) memsetEffect(st Env[varState], dst cast.Expr, c, n interval.Interval) Env[varState] {
	sym, extra, ok := resolveVar(st, dst)
	if !ok {
		return st
	}
	vs := st.Get(sym.ID)
	start := vs.off.Add(extra)
	cv, cExact := c.Exact()
	_, nExact := n.Exact()
	sv, sExact := start.Exact()
	switch {
	case cExact && cv == 0:
		// The first written byte is a NUL.
		vs.strl = interval.Interval{Lo: min(vs.strl.Lo, start.Lo), Hi: min(vs.strl.Hi, start.Hi)}.ClampMin(0)
	case cExact && cv != 0 && nExact && sExact:
		// Bytes [sv, sv+nv-1] are all nonzero: no first NUL among them.
		end := start.Add(n).Lo
		switch {
		case vs.strl.Hi < sv:
			// NUL definitely before the region: unchanged.
		case vs.strl.Lo >= sv:
			vs.strl = interval.Range(max(vs.strl.Lo, end), interval.PosInf)
		default:
			vs.strl = interval.Range(vs.strl.Lo, interval.PosInf)
		}
	default:
		vs.strl = interval.Range(0, interval.PosInf)
	}
	return st.Set(sym.ID, vs)
}

func (p *funcProblem) havocStrl(st Env[varState], dst cast.Expr) Env[varState] {
	sym, _, ok := resolveVar(st, dst)
	if !ok {
		return st
	}
	vs := st.Get(sym.ID)
	vs.strl = interval.Range(0, interval.PosInf)
	return st.Set(sym.ID, vs)
}

// havocUserCall conservatively forgets what a call to a user-defined (or
// unmodeled) function may change: the contents of every buffer reachable
// from a pointer argument, variables passed by address, and all globals'
// values and string lengths. Sizes, offsets and regions are preserved —
// the callee cannot re-allocate the caller's objects.
func (p *funcProblem) havocUserCall(st Env[varState], call *cast.CallExpr) Env[varState] {
	for _, a := range call.Args {
		ua := cast.Unparen(a)
		if u, ok := ua.(*cast.UnaryExpr); ok && u.Op == cast.UnaryAddrOf {
			if id, ok := cast.Unparen(u.Operand).(*cast.Ident); ok && id.Sym != nil {
				vs := st.Get(id.Sym.ID)
				vs.strl = interval.Range(0, interval.PosInf)
				vs.val = interval.Top()
				st = st.Set(id.Sym.ID, vs)
			}
			continue
		}
		if sym, _, ok := resolveVar(st, ua); ok {
			vs := st.Get(sym.ID)
			vs.strl = interval.Range(0, interval.PosInf)
			st = st.Set(sym.ID, vs)
		}
	}
	// Globals may be rewritten by any call.
	return st.Map(func(id int, vs varState) varState {
		if p.globalIDs[id] {
			vs.strl = interval.Range(0, interval.PosInf)
			vs.val = interval.Top()
		}
		return vs
	})
}

// --- pure evaluation --------------------------------------------------------

// resolveVar finds the variable a pointer expression is based on, plus any
// byte offset accumulated through arithmetic on the way. It looks through
// parens, casts, and ± of integer amounts.
func resolveVar(st Env[varState], e cast.Expr) (*cast.Symbol, interval.Interval, bool) {
	switch x := cast.Unparen(e).(type) {
	case *cast.Ident:
		if x.Sym != nil && isPtrVar(x.Sym) {
			return x.Sym, interval.Const(0), true
		}
	case *cast.CastExpr:
		return resolveVar(st, x.Operand)
	case *cast.BinaryExpr:
		if x.Op != cast.BinaryAdd && x.Op != cast.BinarySub {
			return nil, interval.Interval{}, false
		}
		scale := elemSize(x.Type())
		if sym, extra, ok := resolveVar(st, x.X); ok {
			d := evalInt(st, x.Y).MulConst(scale)
			if x.Op == cast.BinarySub {
				d = d.Neg()
			}
			return sym, extra.Add(d), true
		}
		if x.Op == cast.BinaryAdd {
			if sym, extra, ok := resolveVar(st, x.Y); ok {
				return sym, extra.Add(evalInt(st, x.X).MulConst(scale)), true
			}
		}
	}
	return nil, interval.Interval{}, false
}

// evalPtr computes the abstract pointer value of e: the size, offset,
// string length and region of the object it refers to.
func evalPtr(st Env[varState], e cast.Expr) (varState, bool) {
	if e == nil {
		return varState{}, false
	}
	switch x := cast.Unparen(e).(type) {
	case *cast.Ident:
		if x.Sym == nil || !isPtrVar(x.Sym) {
			return varState{}, false
		}
		vs := st.Get(x.Sym.ID)
		if ctype.IsArray(x.Sym.Type) && vs.IsTop() {
			// An array used before its CFG decl node is seen (e.g. via goto):
			// its size is still known from the type.
			if sz := x.Sym.Type.Size(); sz >= 0 {
				vs.size = interval.Const(int64(sz))
				vs.off = interval.Const(0)
				vs.reg = regStack
			}
		}
		return vs, true
	case *cast.StringLit:
		vs := topVar()
		vs.size = interval.Const(int64(len(x.Value)) + 1)
		vs.off = interval.Const(0)
		vs.strl = interval.Const(int64(len(x.Value)))
		vs.reg = regStack
		return vs, true
	case *cast.CastExpr:
		return evalPtr(st, x.Operand)
	case *cast.AssignExpr:
		if x.Op == cast.AssignPlain {
			return evalPtr(st, x.RHS)
		}
	case *cast.BinaryExpr:
		if x.Op != cast.BinaryAdd && x.Op != cast.BinarySub {
			return varState{}, false
		}
		scale := elemSize(x.Type())
		if vs, ok := evalPtr(st, x.X); ok {
			d := evalInt(st, x.Y).MulConst(scale)
			if x.Op == cast.BinarySub {
				d = d.Neg()
			}
			vs.off = vs.off.Add(d)
			return vs, true
		}
		if x.Op == cast.BinaryAdd {
			if vs, ok := evalPtr(st, x.Y); ok {
				vs.off = vs.off.Add(evalInt(st, x.X).MulConst(scale))
				return vs, true
			}
		}
	case *cast.UnaryExpr:
		if x.Op == cast.UnaryAddrOf {
			switch inner := cast.Unparen(x.Operand).(type) {
			case *cast.IndexExpr:
				if vs, ok := evalPtr(st, inner.Base); ok {
					scale := elemSize(ctype.Decay(typeOf(cast.Unparen(inner.Base))))
					vs.off = vs.off.Add(evalInt(st, inner.Index).MulConst(scale))
					return vs, true
				}
			case *cast.Ident:
				return evalPtr(st, inner)
			}
		}
	case *cast.CallExpr:
		switch x.Callee() {
		case "malloc":
			return heapVar(evalInt(st, x.Arg(0))), true
		case "calloc":
			return heapVar(evalInt(st, x.Arg(0)).Mul(evalInt(st, x.Arg(1)))), true
		case "realloc":
			return heapVar(evalInt(st, x.Arg(1))), true
		}
	case *cast.CondExpr:
		a, okA := evalPtr(st, x.Then)
		b, okB := evalPtr(st, x.Else)
		if okA && okB {
			return a.Join(b), true
		}
	}
	return varState{}, false
}

func heapVar(size interval.Interval) varState {
	vs := topVar()
	vs.size = size.ClampMin(0)
	vs.off = interval.Const(0)
	vs.reg = regHeap
	return vs
}

// evalInt computes the integer interval of e under st.
func evalInt(st Env[varState], e cast.Expr) interval.Interval {
	if e == nil {
		return interval.Top()
	}
	switch x := cast.Unparen(e).(type) {
	case *cast.IntLit:
		return interval.Const(x.Value)
	case *cast.CharLit:
		return interval.Const(int64(x.Value))
	case *cast.Ident:
		if x.Sym == nil {
			return interval.Top()
		}
		if x.Sym.Kind == cast.SymEnumConst {
			if v, ok := ConstOf(x); ok {
				return interval.Const(v)
			}
		}
		if IsIntVar(x.Sym) {
			return st.Get(x.Sym.ID).val
		}
		return interval.Top()
	case *cast.UnaryExpr:
		switch x.Op {
		case cast.UnaryMinus:
			return evalInt(st, x.Operand).Neg()
		case cast.UnaryPlus:
			return evalInt(st, x.Operand)
		case cast.UnaryNot:
			return interval.Range(0, 1)
		}
		return interval.Top()
	case *cast.SizeofExpr:
		if v, ok := ConstOf(x); ok {
			return interval.Const(v)
		}
		return interval.Range(0, interval.PosInf)
	case *cast.BinaryExpr:
		a, b := evalInt(st, x.X), evalInt(st, x.Y)
		switch x.Op {
		case cast.BinaryAdd:
			return a.Add(b)
		case cast.BinarySub:
			return a.Sub(b)
		case cast.BinaryMul:
			return a.Mul(b)
		case cast.BinaryLt, cast.BinaryGt, cast.BinaryLe, cast.BinaryGe,
			cast.BinaryEq, cast.BinaryNe, cast.BinaryLAnd, cast.BinaryLOr:
			return interval.Range(0, 1)
		case cast.BinaryRem:
			if k, ok := b.Exact(); ok && k > 0 && a.Lo >= 0 {
				return interval.Range(0, k-1)
			}
		}
		return interval.Top()
	case *cast.CastExpr:
		return evalInt(st, x.Operand)
	case *cast.AssignExpr:
		return evalInt(st, x.RHS)
	case *cast.CommaExpr:
		return evalInt(st, x.Y)
	case *cast.CondExpr:
		return evalInt(st, x.Then).Join(evalInt(st, x.Else))
	case *cast.CallExpr:
		if x.Callee() == "strlen" {
			return strlenOf(st, x.Arg(0))
		}
		return interval.Top()
	}
	return interval.Top()
}

// strlenOf returns the interval of strlen(p): the first NUL relative to
// the pointer, i.e. strl - off.
func strlenOf(st Env[varState], p cast.Expr) interval.Interval {
	vs, ok := evalPtr(st, p)
	if !ok || vs.strl.Hi >= interval.PosInf || vs.off.IsTop() {
		return interval.Range(0, interval.PosInf)
	}
	return vs.strl.Sub(vs.off).ClampMin(0)
}

// --- helpers ----------------------------------------------------------------

func elemSize(t ctype.Type) int64 {
	if el := ctype.Elem(t); el != nil {
		if s := el.Size(); s > 0 {
			return int64(s)
		}
	}
	return 1
}

func typeOf(e cast.Expr) ctype.Type {
	if e == nil {
		return nil
	}
	return e.Type()
}
