package dataflow

import "testing"

// TestBitSetWordBoundaries exercises capacities straddling the 64-bit word
// boundary, where off-by-one errors in the word math would hide.
func TestBitSetWordBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		b := NewBitSet(n)
		wantWords := (n + 63) / 64
		if len(b) != wantWords {
			t.Fatalf("NewBitSet(%d): %d words, want %d", n, len(b), wantWords)
		}
		for i := 0; i < n; i++ {
			if b.Has(i) {
				t.Fatalf("n=%d: fresh set has %d", n, i)
			}
			b.Set(i)
			if !b.Has(i) {
				t.Fatalf("n=%d: Set(%d) not visible", n, i)
			}
		}
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Count=%d after filling", n, got)
		}
		// Remove the last valid element (the boundary bit).
		last := NewBitSet(n)
		last.Set(n - 1)
		b.DiffWith(last)
		if b.Has(n-1) || b.Count() != n-1 {
			t.Fatalf("n=%d: DiffWith({%d}) failed (count=%d)", n, n-1, b.Count())
		}
		// ForEach must enumerate exactly the present elements in order.
		prev := -1
		count := 0
		b.ForEach(func(i int) {
			if i <= prev || i >= n-1 {
				t.Fatalf("n=%d: ForEach yielded %d after %d", n, i, prev)
			}
			prev = i
			count++
		})
		if count != n-1 {
			t.Fatalf("n=%d: ForEach yielded %d elements, want %d", n, count, n-1)
		}
	}
}

// TestBitSetUnionNoChangeFastPath checks that UnionWith reports false when
// the receiver already contains the argument (the points-to solver's
// change test depends on this).
func TestBitSetUnionNoChangeFastPath(t *testing.T) {
	a := NewBitSet(130)
	b := NewBitSet(130)
	for _, i := range []int{0, 63, 64, 65, 129} {
		a.Set(i)
	}
	b.Set(63)
	b.Set(129)

	// a already contains b: must report unchanged.
	if a.UnionWith(b) {
		t.Fatal("UnionWith(subset) reported change")
	}
	if changed := b.UnionWith(a); !changed {
		t.Fatal("UnionWith(superset) reported no change")
	}
	if !b.Equal(a) {
		t.Fatal("sets differ after union")
	}
	if b.UnionWith(a) {
		t.Fatal("second UnionWith reported change")
	}
}

// TestBitSetCloneAndDiff pins Clone independence and DiffWith semantics at
// word boundaries.
func TestBitSetCloneAndDiff(t *testing.T) {
	a := NewBitSet(65)
	a.Set(0)
	a.Set(64)
	c := a.Clone()
	c.Set(1)
	if a.Has(1) {
		t.Fatal("Clone aliases the original")
	}
	d := NewBitSet(65)
	d.Set(0)
	a.DiffWith(d)
	if a.Has(0) || !a.Has(64) {
		t.Fatal("DiffWith removed the wrong elements")
	}
}
