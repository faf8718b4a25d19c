package overflow

import (
	"repro/internal/cast"
	"repro/internal/ctype"
	"repro/internal/interval"
)

// region classifies the storage of the object a pointer refers to; it
// decides the stack/heap CWE split (121 vs 122).
type region uint8

// Storage regions.
const (
	regUnknown region = iota
	regStack          // automatic or static storage
	regHeap           // heap allocation
)

// varState is the abstract value of one variable. Integer variables use
// only val; pointer and array variables use size/off/strl/reg, all in
// bytes relative to the start of the referenced object:
//
//	size — allocation size of the object
//	off  — the pointer's offset into the object
//	strl — index of the first NUL byte (string length from object start)
type varState struct {
	size interval.Interval
	off  interval.Interval
	strl interval.Interval
	val  interval.Interval
	reg  region
}

// topVar is the unknown variable state, the value an Env reads for an
// absent key.
func topVar() varState {
	return varState{
		size: interval.Top(),
		off:  interval.Top(),
		strl: interval.Range(0, interval.PosInf), // a first-NUL index is never negative
		val:  interval.Top(),
		reg:  regUnknown,
	}
}

// Top returns topVar(). A varState joined or widened with it is topVar()
// because every string length is clamped at 0, so an Env drops a key
// that only one side of a join or widen holds.
func (varState) Top() varState { return topVar() }

// IsTop reports the unknown state.
func (v varState) IsTop() bool { return v == topVar() }

// Equal is field equality.
func (v varState) Equal(o varState) bool { return v == o }

// Int returns the value interval of an integer variable.
func (v varState) Int() interval.Interval { return v.val }

// WithInt returns v with its value interval replaced by iv.
func (v varState) WithInt(iv interval.Interval) varState {
	v.val = iv
	return v
}

// Join merges two path values.
func (v varState) Join(o varState) varState {
	reg := v.reg
	if o.reg != v.reg {
		reg = regUnknown
	}
	return varState{
		size: v.size.Join(o.size),
		off:  v.off.Join(o.off),
		strl: v.strl.Join(o.strl),
		val:  v.val.Join(o.val),
		reg:  reg,
	}
}

// Widen extrapolates v by next at a loop head.
func (v varState) Widen(next varState) varState {
	reg := v.reg
	if next.reg != v.reg {
		reg = regUnknown
	}
	return varState{
		size: v.size.Widen(next.size),
		off:  v.off.Widen(next.off),
		strl: v.strl.Widen(next.strl).ClampMin(0),
		val:  v.val.Widen(next.val),
		reg:  reg,
	}
}

// isPtrVar reports whether the symbol denotes a buffer (array) or may
// point into one.
func isPtrVar(sym *cast.Symbol) bool {
	return sym != nil && (ctype.IsPointer(sym.Type) || ctype.IsArray(sym.Type))
}
