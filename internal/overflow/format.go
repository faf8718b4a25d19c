package overflow

import (
	"math"

	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/interval"
)

// formatLength bounds the bytes sprintf writes before the NUL for a
// literal format through backend's printf model: an integer, char or
// pointer conversion by the extremal values of its argument's interval,
// a string by its strlen under the spec's precision and width, a double
// as [1, +inf). args is the call's argument list and firstVarArg the
// index of the first conversion's argument. A format that is not a
// literal, or a conversion the model does not bound, leaves the upper
// bound +inf.
func formatLength(st Env[varState], fmtExpr cast.Expr, args []cast.Expr, firstVarArg int) interval.Interval {
	lit, ok := cast.Unparen(fmtExpr).(*cast.StringLit)
	if !ok {
		return interval.Range(0, interval.PosInf)
	}
	total := interval.Const(0)
	backend.WalkFormat(lit.Value, func(s string) { total = total.AddConst(int64(len(s))) }, func(sp backend.Spec) bool {
		var a cast.Expr
		if firstVarArg < len(args) {
			a = args[firstVarArg]
		}
		firstVarArg++
		n, ok := convLength(st, sp, a)
		total = total.Add(n)
		return ok
	})
	return total
}

// convLength bounds the output of one conversion; ok is false, with the
// bound [0, +inf), for one the model does not bound.
func convLength(st Env[varState], sp backend.Spec, arg cast.Expr) (interval.Interval, bool) {
	switch sp.Kind() {
	case backend.ArgFloat:
		return interval.Range(1, interval.PosInf), true
	case backend.ArgStr:
		l := strlenOf(st, arg)
		return interval.Range(min(sp.StrLen(l.Lo), interval.PosInf), min(sp.StrLen(l.Hi), interval.PosInf)), true
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64) // every value of the type
	if iv := evalInt(st, arg); iv.Lo > interval.NegInf && iv.Hi < interval.PosInf {
		lo, hi = iv.Lo, iv.Hi
	}
	least, most, ok := sp.LenRange(lo, hi)
	if !ok {
		return interval.Range(0, interval.PosInf), false
	}
	return interval.Range(min(least, interval.PosInf), min(most, interval.PosInf)), true
}
