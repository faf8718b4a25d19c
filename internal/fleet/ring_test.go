package fleet

import (
	"fmt"
	"testing"
)

// TestRingDeterministicAndOrderIndependent: the same member set yields
// the same routing regardless of configuration order.
func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	b := NewRing([]string{"http://c", "http://a", "http://b"}, 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Replicas(key)[0] != b.Replicas(key)[0] {
			t.Fatalf("key %q: owner differs by member order: %s vs %s", key, a.Replicas(key)[0], b.Replicas(key)[0])
		}
	}
}

// TestRingReplicasDistinctAndComplete: every key's replica list is a
// permutation of the member set.
func TestRingReplicasDistinctAndComplete(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	r := NewRing(members, 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		reps := r.Replicas(key)
		if len(reps) != len(members) {
			t.Fatalf("key %q: want %d replicas, got %v", key, len(members), reps)
		}
		seen := map[string]bool{}
		for _, m := range reps {
			if seen[m] {
				t.Fatalf("key %q: duplicate replica %s in %v", key, m, reps)
			}
			seen[m] = true
		}
	}
}

// TestRingBalance: vnode placement spreads keys within a reasonable
// factor of uniform (no backend starves or drowns).
func TestRingBalance(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	r := NewRing(members, 0)
	counts := map[string]int{}
	const n = 9000
	for i := 0; i < n; i++ {
		counts[r.Replicas(fmt.Sprintf("sha-like-key-%d", i))[0]]++
	}
	want := n / len(members)
	for m, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("member %s owns %d of %d keys (uniform would be %d): unbalanced ring", m, c, n, want)
		}
	}
}

// TestRingMinimalMovement: adding one member moves only the keys it
// takes over — existing keys do not reshuffle among surviving members.
func TestRingMinimalMovement(t *testing.T) {
	three := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	four := NewRing([]string{"http://a", "http://b", "http://c", "http://d"}, 0)
	const n = 3000
	moved, movedElsewhere := 0, 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := three.Replicas(key)[0], four.Replicas(key)[0]
		if before != after {
			moved++
			if after != "http://d" {
				movedElsewhere++
			}
		}
	}
	if movedElsewhere != 0 {
		t.Errorf("%d keys moved between surviving members; consistent hashing must only move keys to the new member", movedElsewhere)
	}
	// Roughly 1/4 of keys should move to the new member.
	if moved < n/8 || moved > n/2 {
		t.Errorf("%d of %d keys moved to the new member; want about %d", moved, n, n/4)
	}
}

// TestRingSingleMember degenerates gracefully.
func TestRingSingleMember(t *testing.T) {
	r := NewRing([]string{"http://only"}, 0)
	if got := r.Replicas("anything"); len(got) != 1 || got[0] != "http://only" {
		t.Fatalf("single-member ring: got %v", got)
	}
}
