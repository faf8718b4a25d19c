package overflow

import "repro/internal/interval"

// Value is one oracle's abstract value of a variable, the V of an
// Env[V]: its lattice operations, its top test, and the value interval
// the branch refiner reads and narrows.
type Value[V any] interface {
	// Top returns the unknown value. It is called on the zero V; an Env
	// reads it for an absent key and never stores it.
	Top() V
	IsTop() bool
	Join(V) V
	Widen(next V) V
	Equal(V) bool
	Int() interval.Interval
	WithInt(interval.Interval) V
}

// Env is the abstract memory both oracles solve over: reachability plus
// a map from Symbol.ID to V. An absent key reads as V's top and top is
// never stored, so two environments are equal exactly when their maps
// hold equal values under the same keys. The zero Env is the unreached
// one. An Env is never mutated once built: every update returns a copy.
type Env[V Value[V]] struct {
	reach bool
	vars  map[int]V
}

// NewEnv returns the reached environment holding the non-top values of
// each map in turn, a later map's value replacing an earlier one's.
func NewEnv[V Value[V]](maps ...map[int]V) Env[V] {
	n := 0
	for _, m := range maps {
		n += len(m)
	}
	out := Env[V]{reach: true, vars: make(map[int]V, n)}
	for _, m := range maps {
		for id, v := range m {
			out.put(id, v)
		}
	}
	return out
}

// Reached reports whether any execution reaches the program point.
func (s Env[V]) Reached() bool { return s.reach }

// Get returns the value of variable id.
func (s Env[V]) Get(id int) V {
	if v, ok := s.vars[id]; ok {
		return v
	}
	var top V
	return top.Top()
}

// Set returns a copy of s with variable id bound to v.
func (s Env[V]) Set(id int, v V) Env[V] {
	out := s.Map(nil)
	if v.IsTop() {
		delete(out.vars, id)
	} else {
		out.vars[id] = v
	}
	return out
}

// Int returns the value interval of integer variable id.
func (s Env[V]) Int(id int) interval.Interval { return s.Get(id).Int() }

// WithInt returns a copy of s with integer variable id narrowed to iv.
func (s Env[V]) WithInt(id int, iv interval.Interval) Env[V] {
	return s.Set(id, s.Get(id).WithInt(iv))
}

// Map returns a copy of s with each stored value replaced by f(id, v);
// a nil f copies s unchanged.
func (s Env[V]) Map(f func(id int, v V) V) Env[V] {
	out := Env[V]{reach: s.reach, vars: make(map[int]V, len(s.vars))}
	for id, v := range s.vars {
		if f != nil {
			v = f(id, v)
		}
		out.put(id, v)
	}
	return out
}

// put stores v under id unless v is top; out must be freshly built.
func (s Env[V]) put(id int, v V) {
	if !v.IsTop() {
		s.vars[id] = v
	}
}

// Equal reports whether two environments are the same fixpoint
// candidate; values compare through V.
func (s Env[V]) Equal(o Env[V]) bool {
	if s.reach != o.reach || len(s.vars) != len(o.vars) {
		return false
	}
	for id, v := range s.vars {
		if ov, ok := o.vars[id]; !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Join merges two path states. A key present on one side only is joined
// with top, so a value whose join with top is not top (wrap taint)
// survives the merge.
func (s Env[V]) Join(o Env[V]) Env[V] {
	return s.combine(o, V.Join)
}

// Widen extrapolates s by next at a loop head; keys present on one side
// only are widened with top, like Join's.
func (s Env[V]) Widen(next Env[V]) Env[V] {
	return s.combine(next, V.Widen)
}

func (s Env[V]) combine(o Env[V], op func(V, V) V) Env[V] {
	if !s.reach {
		return o
	}
	if !o.reach {
		return s
	}
	var top V
	top = top.Top()
	out := Env[V]{reach: true, vars: make(map[int]V)}
	for id, v := range s.vars {
		ov, ok := o.vars[id]
		if !ok {
			ov = top
		}
		out.put(id, op(v, ov))
	}
	for id, ov := range o.vars {
		if _, ok := s.vars[id]; !ok {
			out.put(id, op(top, ov))
		}
	}
	return out
}

// Lattice supplies the lattice half of a dataflow.Problem over Env[V];
// an oracle's per-seed problem embeds it and adds Entry, Transfer and
// FlowEdge.
type Lattice[V Value[V]] struct{}

// Bottom is the unreached environment.
func (Lattice[V]) Bottom() Env[V] { return Env[V]{} }

// Join merges two path states.
func (Lattice[V]) Join(a, b Env[V]) Env[V] { return a.Join(b) }

// Widen extrapolates prev by next at loop heads.
func (Lattice[V]) Widen(prev, next Env[V]) Env[V] { return prev.Widen(next) }

// Equal reports whether two states are the same fixpoint candidate.
func (Lattice[V]) Equal(a, b Env[V]) bool { return a.Equal(b) }
