package intflow

import (
	"repro/internal/ctype"
	"repro/internal/interval"
)

// ival is the abstract value of one integer variable: the value interval
// (in unbounded mathematical integers, before any modular reduction),
// whether a wraparound may already have happened on the way to this
// value, whether that wrap was provable on every path, and the suggested
// precondition guard rendered at the wrap site (carried along so a later
// allocation sink can attach it to its CWE-680 finding).
type ival struct {
	v interval.Interval
	// wrapped marks a value that may have been reduced modulo its type
	// width somewhere upstream; definite marks a wrap that happens on
	// every execution reaching this point.
	wrapped  bool
	definite bool
	// guard is the IntRepair-style precondition check suggested at the
	// wrap site ("" when none was rendered).
	guard string
}

// topIval is the unknown value, the value an Env reads for an absent key.
func topIval() ival { return ival{v: interval.Top()} }

// Top returns topIval(). Join and widen keep wrap taint, so a tainted
// value that only one side of a join or widen holds survives it.
func (ival) Top() ival { return topIval() }

// IsTop reports the unknown, untainted value.
func (x ival) IsTop() bool { return x.v.IsTop() && !x.wrapped }

// Join merges two path values. Wrap taint is may-information (either
// path suffices); definiteness is must-information (both paths needed).
func (x ival) Join(o ival) ival {
	out := ival{
		v:        x.v.Join(o.v),
		wrapped:  x.wrapped || o.wrapped,
		definite: x.definite && o.definite,
		guard:    x.guard,
	}
	if out.guard == "" {
		out.guard = o.guard
	}
	return out
}

// Widen extrapolates x by next at a loop head, keeping taint as Join
// does.
func (x ival) Widen(next ival) ival {
	out := ival{
		v:        x.v.Widen(next.v),
		wrapped:  x.wrapped || next.wrapped,
		definite: x.definite && next.definite,
		guard:    x.guard,
	}
	if out.guard == "" {
		out.guard = next.guard
	}
	return out
}

// Equal ignores the guard text: it is derived deterministically from the
// same sites that set the wrapped flag, so comparing it would only slow
// convergence without changing the fixpoint.
func (x ival) Equal(o ival) bool {
	return x.v == o.v && x.wrapped == o.wrapped && x.definite == o.definite
}

// Int returns the value interval.
func (x ival) Int() interval.Interval { return x.v }

// WithInt returns x with its interval narrowed to iv. Wrap taint
// survives: a bounds check after the wrap does not un-wrap the value.
func (x ival) WithInt(iv interval.Interval) ival {
	x.v = iv
	return x
}

// typeBounds returns the representable range [lo, hi] of an integer
// type, with hi == interval.PosInf standing for "no detectable upper
// bound" (64-bit unsigned types: their width exceeds the interval
// domain's sentinels, so only lower-bound underflow is checkable).
// ok is false for types the analysis does not wrap-check (floats,
// pointers, _Bool, and 64-bit signed types).
func typeBounds(t ctype.Type) (lo, hi int64, ok bool) {
	b, isBasic := ctype.Unqualify(t).(*ctype.Basic)
	if !isBasic {
		return 0, 0, false
	}
	switch b.Kind {
	case ctype.Char, ctype.SChar: // char is signed on LP64 Linux
		return -128, 127, true
	case ctype.UChar:
		return 0, 255, true
	case ctype.Short:
		return -32768, 32767, true
	case ctype.UShort:
		return 0, 65535, true
	case ctype.Int:
		return -2147483648, 2147483647, true
	case ctype.UInt:
		return 0, 4294967295, true
	case ctype.ULong, ctype.ULongLong:
		// 2^64-1 exceeds the sentinel range: underflow below zero is
		// still detectable, overflow above is not.
		return 0, interval.PosInf, true
	default:
		return 0, 0, false
	}
}
