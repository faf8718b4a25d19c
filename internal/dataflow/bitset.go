// Package dataflow provides a generic worklist dataflow solver and the
// reaching-definitions analysis the paper's Algorithm 1 depends on
// (Section III-A: "Reaching definition and control and data dependence
// analysis algorithms follow traditional worklist based algorithms").
package dataflow

import "math/bits"

// BitSet is a fixed-capacity bit vector used as the dataflow lattice
// element. The zero value of a BitSet created with NewBitSet(n) is the
// empty set.
type BitSet []uint64

// NewBitSet returns an empty set with capacity for n elements.
func NewBitSet(n int) BitSet {
	return make(BitSet, (n+63)/64)
}

// Set adds i to the set.
func (b BitSet) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// SetFirstN adds every element in [0, n) to the set. n must not exceed
// the capacity the set was created with; slack bits in the last word
// stay clear so ForEach never yields an out-of-range element.
func (b BitSet) SetFirstN(n int) {
	full := n / 64
	for i := 0; i < full; i++ {
		b[i] = ^uint64(0)
	}
	if rem := uint(n % 64); rem != 0 {
		b[full] |= (uint64(1) << rem) - 1
	}
}

// Has reports whether i is in the set.
func (b BitSet) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// UnionWith adds all elements of other to b, reporting whether b changed.
func (b BitSet) UnionWith(other BitSet) bool {
	changed := false
	for i := range b {
		old := b[i]
		b[i] |= other[i]
		if b[i] != old {
			changed = true
		}
	}
	return changed
}

// DiffWith removes all elements of other from b.
func (b BitSet) DiffWith(other BitSet) {
	for i := range b {
		b[i] &^= other[i]
	}
}

// Equal reports set equality.
func (b BitSet) Equal(other BitSet) bool {
	if len(b) != len(other) {
		return false
	}
	for i := range b {
		if b[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b BitSet) Clone() BitSet {
	out := make(BitSet, len(b))
	copy(out, b)
	return out
}

// Count returns the number of elements in the set.
func (b BitSet) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f for every element in ascending order.
func (b BitSet) ForEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			f(wi*64 + bit)
			w &= w - 1
		}
	}
}
