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

// topIval is the unknown value (the implicit state of absent map keys).
func topIval() ival { return ival{v: interval.Top()} }

func (x ival) isTop() bool { return x.v.IsTop() && !x.wrapped }

// join merges two path states. Wrap taint is may-information (either
// path suffices); definiteness is must-information (both paths needed).
func (x ival) join(o ival) ival {
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

func (x ival) widen(next ival) ival {
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

// equal ignores the guard text: it is derived deterministically from the
// same sites that set the wrapped flag, so comparing it would only slow
// convergence without changing the fixpoint.
func (x ival) equal(o ival) bool {
	return x.v == o.v && x.wrapped == o.wrapped && x.definite == o.definite
}

// istate is the abstract integer memory at one program point:
// reachability plus a map from Symbol.ID to ival. Absent keys are top;
// maps are normalized so equality is map equality.
type istate struct {
	reach bool
	vars  map[int]ival
}

// Reached reports whether any execution reaches the program point; the
// zero state is the unreached one.
func (s istate) Reached() bool { return s.reach }

// Int returns the value interval of integer variable id.
func (s istate) Int(id int) interval.Interval { return s.get(id).v }

// WithInt returns a copy of s with integer variable id narrowed to v.
// Wrap taint survives: a bounds check after the wrap does not un-wrap
// the value.
func (s istate) WithInt(id int, v interval.Interval) istate {
	x := s.get(id)
	x.v = v
	return s.set(id, x)
}

func (s istate) get(id int) ival {
	if v, ok := s.vars[id]; ok {
		return v
	}
	return topIval()
}

func (s istate) set(id int, v ival) istate {
	out := s.clone()
	if v.isTop() {
		delete(out.vars, id)
	} else {
		out.vars[id] = v
	}
	return out
}

func (s istate) clone() istate {
	out := istate{reach: s.reach, vars: make(map[int]ival, len(s.vars))}
	for k, v := range s.vars {
		out.vars[k] = v
	}
	return out
}

func (s istate) Equal(o istate) bool {
	if s.reach != o.reach || len(s.vars) != len(o.vars) {
		return false
	}
	for k, v := range s.vars {
		ov, ok := o.vars[k]
		if !ok || !ov.equal(v) {
			return false
		}
	}
	return true
}

func (s istate) Join(o istate) istate {
	if !s.reach {
		return o
	}
	if !o.reach {
		return s
	}
	out := istate{reach: true, vars: make(map[int]ival)}
	// Absent keys are top; joining anything with top is top unless the
	// present side carries wrap taint (taint must survive the merge).
	for k, v := range s.vars {
		var j ival
		if ov, ok := o.vars[k]; ok {
			j = v.join(ov)
		} else {
			j = v.join(topIval())
		}
		if !j.isTop() {
			out.vars[k] = j
		}
	}
	for k, ov := range o.vars {
		if _, ok := s.vars[k]; ok {
			continue
		}
		if j := ov.join(topIval()); !j.isTop() {
			out.vars[k] = j
		}
	}
	return out
}

func (s istate) Widen(next istate) istate {
	if !s.reach {
		return next
	}
	if !next.reach {
		return s
	}
	out := istate{reach: true, vars: make(map[int]ival)}
	for k, v := range s.vars {
		nv, ok := next.vars[k]
		if !ok {
			nv = topIval()
		}
		if w := v.widen(nv); !w.isTop() {
			out.vars[k] = w
		}
	}
	for k, nv := range next.vars {
		if _, ok := s.vars[k]; ok {
			continue
		}
		// A variable that just became wrap-tainted must not be dropped.
		if nv.wrapped {
			out.vars[k] = topIval().widen(nv)
		}
	}
	return out
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
