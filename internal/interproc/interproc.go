// Package interproc implements the interprocedural may-modify analysis
// that guards SAFE TYPE REPLACEMENT (Section III-C): when a char pointer is
// used as an argument to a user-defined function, STR must determine, at
// the call site, whether the callee may modify the pointed-to buffer. The
// analysis is conservative — it may report a modification where none
// occurs, but never the reverse — because an unsound answer would let STR
// change program behavior.
//
// The solver runs on summaries. Each function body is walked once into a
// Summary: the parameters it writes through or lets escape, and the
// (parameter, callee, argument) flows it passes on. Analyze then solves
// the least fixpoint over the summaries alone, without revisiting any
// body. A summary holds parameter indices and callee names, no positions
// or other functions' facts, so it stays exact while its body is
// unchanged: the facts layer (internal/analysis) keeps every retained
// body's summary across an in-body edit of another function and walks
// only the edited body again.
package interproc

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/ctype"
)

// Result holds per-function, per-parameter may-modify facts.
type Result struct {
	// mods[funcName][paramIdx] reports that the function may write through
	// the parameter.
	mods map[string][]bool
}

// Summary is what one function body says about its parameters on its
// own: the ones it writes through or lets escape, and the ones it passes
// to a named callee, whose may-modify fact then decides. It holds
// parameter indices and callee names only, so it stays exact for as
// long as the body is unchanged, whatever else in the unit moves.
type Summary struct {
	// writes[i] reports a direct write through parameter i, an escape of
	// it, or a pass to a call through a function pointer; nil for none.
	writes []bool
	// flows lists each (parameter, callee, argument) pass, sorted and
	// without duplicates.
	flows []flow
}

// flow is one pass of a parameter-derived buffer as a call argument.
type flow struct {
	callee string
	param  int
	arg    int
}

// Summarizer builds one function's Summary from the nodes of its body,
// visited in any order (Visit), so that a caller walking the body for
// other facts too walks it once. The zero value is ready for Reset; one
// Summarizer can summarize many bodies in turn, reusing its buffers.
type Summarizer struct {
	// params holds each parameter's symbol by index (nil if unnamed).
	params []*cast.Symbol
	writes []bool
	flows  []flow
}

// Reset starts the summary of f.
func (z *Summarizer) Reset(f *cast.FuncDef) {
	z.params = z.params[:0]
	for _, p := range f.Params {
		z.params = append(z.params, p.Sym)
	}
	z.writes, z.flows = nil, z.flows[:0]
}

// Summary returns the summary of the nodes visited since Reset. It
// shares no memory with the Summarizer's buffers.
func (z *Summarizer) Summary() Summary {
	slices.SortFunc(z.flows, func(a, b flow) int {
		return cmp.Or(strings.Compare(a.callee, b.callee), cmp.Compare(a.param, b.param), cmp.Compare(a.arg, b.arg))
	})
	sum := Summary{writes: z.writes}
	if flows := slices.Compact(z.flows); len(flows) > 0 {
		sum.flows = append([]flow(nil), flows...)
	}
	z.writes = nil
	return sum
}

// Visit records what one body node says about the parameters.
func (z *Summarizer) Visit(n cast.Node) {
	switch x := n.(type) {
	case *cast.AssignExpr:
		// Writes through the parameter: *p = v, p[i] = v, p->f = v.
		switch lv := cast.Unparen(x.LHS).(type) {
		case *cast.UnaryExpr:
			if lv.Op == cast.UnaryDeref {
				z.write(z.paramOf(lv.Operand))
			}
		case *cast.IndexExpr:
			z.write(z.paramOf(lv.Base))
		case *cast.MemberExpr:
			if lv.Arrow {
				z.write(z.paramOf(lv.Base))
			}
		}
		// A parameter whose address escapes (stored anywhere) is
		// conservatively modified. A simple over-approximation: any
		// assignment that stores the parameter's address into a global or
		// a member/deref/index target marks the parameter.
		if idx := z.escapeOf(x.RHS); idx >= 0 {
			switch lv := cast.Unparen(x.LHS).(type) {
			case *cast.Ident:
				if lv.Sym != nil && lv.Sym.IsGlobal {
					z.write(idx)
				}
			case *cast.MemberExpr, *cast.UnaryExpr, *cast.IndexExpr:
				z.write(idx)
			}
		}
	case *cast.CallExpr:
		name := x.Callee()
		for ai, arg := range x.Args {
			idx := z.paramOf(arg)
			switch {
			case idx < 0:
			case name == "":
				z.write(idx) // function pointer: conservative
			default:
				z.flows = append(z.flows, flow{callee: name, param: idx, arg: ai})
			}
		}
	}
}

func (z *Summarizer) write(idx int) {
	if idx < 0 {
		return
	}
	if z.writes == nil {
		z.writes = make([]bool, len(z.params))
	}
	z.writes[idx] = true
}

// paramOf resolves an expression to a parameter index when the
// expression's buffer is (derived from) a parameter, and to -1 otherwise.
func (z *Summarizer) paramOf(e cast.Expr) int {
	switch x := cast.Unparen(e).(type) {
	case *cast.Ident:
		if x.Sym == nil {
			return -1
		}
		return slices.Index(z.params, x.Sym)
	case *cast.BinaryExpr:
		if x.Op == cast.BinaryAdd || x.Op == cast.BinarySub {
			if idx := z.paramOf(x.X); idx >= 0 {
				return idx
			}
			return z.paramOf(x.Y)
		}
		return -1
	case *cast.CastExpr:
		return z.paramOf(x.Operand)
	case *cast.UnaryExpr:
		if x.Op == cast.UnaryAddrOf {
			// &p[i] reduces to p.
			if ix, ok := cast.Unparen(x.Operand).(*cast.IndexExpr); ok {
				return z.paramOf(ix.Base)
			}
		}
		return -1
	case *cast.IndexExpr:
		return z.paramOf(x.Base)
	default:
		return -1
	}
}

// escapeOf resolves an expression to a parameter index when its value is
// the address of the parameter's buffer: p, p + n, &p[n], casts of those,
// or an element p[n] that is itself an array row. An element read such
// as p[0] yields a value stored in the buffer, not the buffer, so it
// resolves to -1.
func (z *Summarizer) escapeOf(e cast.Expr) int {
	switch x := cast.Unparen(e).(type) {
	case *cast.BinaryExpr:
		if x.Op == cast.BinaryAdd || x.Op == cast.BinarySub {
			if idx := z.escapeOf(x.X); idx >= 0 {
				return idx
			}
			return z.escapeOf(x.Y)
		}
		return -1
	case *cast.CastExpr:
		return z.escapeOf(x.Operand)
	case *cast.IndexExpr:
		if !isRow(x) {
			return -1
		}
	}
	return z.paramOf(e)
}

// isRow reports whether the element ix names is itself an array, judged
// from the declared type of the variable it indexes. An element whose
// type is unknown counts as a row, the conservative answer.
func isRow(ix *cast.IndexExpr) bool {
	depth := 1
	base := cast.Unparen(ix.Base)
	for inner, ok := base.(*cast.IndexExpr); ok; inner, ok = base.(*cast.IndexExpr) {
		depth++
		base = cast.Unparen(inner.Base)
	}
	id, ok := base.(*cast.Ident)
	if !ok || id.Sym == nil {
		return true
	}
	t := id.Sym.Type
	for ; depth > 0 && t != nil; depth-- {
		t = ctype.Elem(t)
	}
	return t == nil || ctype.IsArray(t)
}

// Analyze computes may-modify facts for every defined function in the
// unit from sums, the summary of each of unit.Funcs in order: it is the
// least fixpoint of the summaries' writes and flows. Definitions that
// share a name share one fact vector, sized by the last of them; a flow
// to an argument position past a defined callee's parameters (a variadic
// extra) or to a function the unit does not define is decided by
// MayModifyParam.
func Analyze(unit *cast.TranslationUnit, sums []Summary) *Result {
	r := &Result{mods: make(map[string][]bool, len(unit.Funcs))}
	for _, f := range unit.Funcs {
		r.mods[f.Name] = make([]bool, len(f.Params))
	}
	// link is a flow between two defined functions' fact vectors:
	// from[arg] implies to[param].
	type link struct {
		from, to   []bool
		arg, param int
	}
	var links []link
	for i, f := range unit.Funcs {
		mods := r.mods[f.Name]
		set := func(idx int) {
			if idx < len(mods) {
				mods[idx] = true
			}
		}
		for idx, w := range sums[i].writes {
			if w {
				set(idx)
			}
		}
		for _, fl := range sums[i].flows {
			callee, defined := r.mods[fl.callee]
			switch {
			case defined && fl.arg < len(callee):
				if fl.param < len(mods) {
					links = append(links, link{from: callee, to: mods, arg: fl.arg, param: fl.param})
				}
			case r.MayModifyParam(fl.callee, fl.arg):
				set(fl.param)
			}
		}
	}
	// The facts grow monotonically (false -> true), so iterate until no
	// change.
	for changed := true; changed; {
		changed = false
		for _, l := range links {
			if l.from[l.arg] && !l.to[l.param] {
				l.to[l.param] = true
				changed = true
			}
		}
	}
	return r
}

// MayModifyParam reports whether the function may write through its
// idx-th parameter: a defined function by its summaries, a library
// function by the catalog (internal/backend). Unknown functions are
// reported as modifying — the conservative answer.
func (r *Result) MayModifyParam(funcName string, idx int) bool {
	mods, ok := r.mods[funcName]
	if !ok {
		// Not defined in this unit: a library function writes what the
		// catalog says; anything else is conservatively a modification.
		f, isLib := backend.Library(funcName)
		return !isLib || slices.Contains(f.Writes, idx)
	}
	if idx >= len(mods) {
		// Variadic overflow arguments: conservative.
		return true
	}
	return mods[idx]
}

// MayModifyArg reports whether the call may modify the buffer passed as
// the idx-th argument.
func (r *Result) MayModifyArg(call *cast.CallExpr, idx int) bool {
	name := call.Callee()
	if name == "" {
		return true // call through a function pointer: conservative
	}
	return r.MayModifyParam(name, idx)
}
