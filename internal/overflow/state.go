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

// topVar is the unknown variable state (the implicit value of variables
// absent from the state map).
func topVar() varState {
	return varState{
		size: interval.Top(),
		off:  interval.Top(),
		strl: interval.Range(0, interval.PosInf), // a first-NUL index is never negative
		val:  interval.Top(),
		reg:  regUnknown,
	}
}

func (v varState) isTop() bool { return v == topVar() }

func (v varState) join(o varState) varState {
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

func (v varState) widen(next varState) varState {
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

// state is the abstract memory at one program point: reachability plus a
// map from Symbol.ID to varState. Absent keys are topVar(); maps are
// normalized so that equality is map equality.
type state struct {
	reach bool
	vars  map[int]varState
}

// Reached reports whether any execution reaches the program point; the
// zero state is the unreached one.
func (s state) Reached() bool { return s.reach }

// Int returns the value interval of integer variable id.
func (s state) Int(id int) interval.Interval { return s.get(id).val }

// WithInt returns a copy of s with integer variable id narrowed to v.
func (s state) WithInt(id int, v interval.Interval) state {
	vs := s.get(id)
	vs.val = v
	return s.set(id, vs)
}

func (s state) get(id int) varState {
	if vs, ok := s.vars[id]; ok {
		return vs
	}
	return topVar()
}

// set returns a copy of s with the variable updated (top values are
// removed to keep the map normalized).
func (s state) set(id int, vs varState) state {
	out := s.clone()
	if vs.isTop() {
		delete(out.vars, id)
	} else {
		out.vars[id] = vs
	}
	return out
}

func (s state) clone() state {
	out := state{reach: s.reach, vars: make(map[int]varState, len(s.vars))}
	for k, v := range s.vars {
		out.vars[k] = v
	}
	return out
}

func (s state) Equal(o state) bool {
	if s.reach != o.reach {
		return false
	}
	if len(s.vars) != len(o.vars) {
		return false
	}
	for k, v := range s.vars {
		ov, ok := o.vars[k]
		if !ok || ov != v {
			return false
		}
	}
	return true
}

func (s state) Join(o state) state {
	if !s.reach {
		return o
	}
	if !o.reach {
		return s
	}
	out := state{reach: true, vars: make(map[int]varState)}
	// Absent keys are top; joining anything with top is top, so only keys
	// present in both survive.
	for k, v := range s.vars {
		if ov, ok := o.vars[k]; ok {
			j := v.join(ov)
			if !j.isTop() {
				out.vars[k] = j
			}
		}
	}
	return out
}

func (s state) Widen(next state) state {
	if !s.reach {
		return next
	}
	if !next.reach {
		return s
	}
	out := state{reach: true, vars: make(map[int]varState)}
	for k, v := range s.vars {
		nv, ok := next.vars[k]
		if !ok {
			continue // widened to top
		}
		w := v.widen(nv)
		if !w.isTop() {
			out.vars[k] = w
		}
	}
	return out
}

// isPtrVar reports whether the symbol denotes a buffer (array) or may
// point into one.
func isPtrVar(sym *cast.Symbol) bool {
	return sym != nil && (ctype.IsPointer(sym.Type) || ctype.IsArray(sym.Type))
}
