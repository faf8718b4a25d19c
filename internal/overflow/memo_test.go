package overflow

import (
	"strings"
	"testing"

	"repro/internal/ctoken"
)

func ext(pos, end int) ctoken.Extent {
	return ctoken.Extent{Pos: ctoken.Pos(pos), End: ctoken.Pos(end)}
}

func TestMemoLoadCopiesAndRecomputesPos(t *testing.T) {
	m := NewMemo()
	m.BeginRun()
	m.Store("k", []Finding{{CWE: 121, Extent: ext(5, 9), Contexts: []string{"main>f"}}})

	file := ctoken.NewFile("x.c", "abc\ndefghij\n")
	got, ok := m.Load("k", file)
	if !ok || len(got) != 1 {
		t.Fatalf("Load: ok=%v n=%d", ok, len(got))
	}
	if got[0].Pos.Line != 2 {
		t.Fatalf("Pos not recomputed: %+v", got[0].Pos)
	}
	// Mutating the returned copy must not leak into the store.
	got[0].Contexts[0] = "mutated"
	got2, _ := m.Load("k", file)
	if got2[0].Contexts[0] != "main>f" {
		t.Fatal("Load returned shared Contexts storage")
	}
}

func TestMemoPrunesStaleEntries(t *testing.T) {
	m := NewMemo()
	m.BeginRun()
	m.Store("old", nil)
	// Three runs without a hit on "old": pruned on the third.
	m.BeginRun()
	m.BeginRun()
	m.BeginRun()
	if n := len(m.entries); n != 0 {
		t.Fatalf("stale entry survived pruning: len=%d", n)
	}
	if _, ok := m.Load("old", nil); ok {
		t.Fatal("pruned entry still loadable")
	}
}

func TestMemoRemapDropsInexactEntries(t *testing.T) {
	m := NewMemo()
	m.BeginRun()
	m.Store("shifted", []Finding{{Extent: ext(10, 20)}})
	m.Store("touched", []Finding{{Extent: ext(30, 40)}})

	// Simulated edit: everything shifts +2; extents starting at 30 were
	// landed inside (inexact).
	m.Remap(func(e ctoken.Extent) (ctoken.Extent, bool) {
		if e.Pos == 30 {
			return e, false
		}
		return ctoken.Extent{Pos: e.Pos + 2, End: e.End + 2}, true
	})

	if got, ok := m.Load("shifted", nil); !ok || got[0].Extent != ext(12, 22) {
		t.Fatalf("exact entry not shifted: ok=%v %+v", ok, got)
	}
	if _, ok := m.Load("touched", nil); ok {
		t.Fatal("inexact entry survived Remap")
	}
}

func TestMemoNilSafety(t *testing.T) {
	var m *Memo
	m.BeginRun()
	m.Remap(func(e ctoken.Extent) (ctoken.Extent, bool) { return e, true })
}

func TestStableSeedKeyOrdersByParamPosition(t *testing.T) {
	paramIndex := map[int]int{42: 1, 7: 0}
	a := stableSeedKey(paramIndex, map[int]string{42: "B", 7: "A"})
	b := stableSeedKey(paramIndex, map[int]string{7: "A", 42: "B"})
	if a != b {
		t.Fatalf("iteration order leaked into key: %q vs %q", a, b)
	}
	if want := "0=A;1=B;"; a != want {
		t.Fatalf("key = %q, want %q", a, want)
	}
	if stableSeedKey(paramIndex, nil) != "" {
		t.Fatal("empty seed must serialize empty")
	}
}

func TestStableSeedKeyRefusesNonParamSymbols(t *testing.T) {
	key := stableSeedKey(map[int]int{1: 0}, map[int]string{99: "X"})
	if !strings.Contains(key, "unstable") {
		t.Fatalf("non-parameter seed produced a reusable key: %q", key)
	}
}

func TestPassKeysDisjoint(t *testing.T) {
	p1 := pass1Key("ovf", "2|t", "f", "h")
	p2 := pass2Key("ovf", "2|t", "h", []string{"f"}, "", 0)
	if p1 == p2 {
		t.Fatal("pass-1 and pass-2 keys collide")
	}
	if pass1Key("ovf", "s", "f", "h") == pass1Key("int", "s", "f", "h") {
		t.Fatal("oracle tags must separate key spaces")
	}
	if pass2Key("ovf", "s", "h", []string{"a", "b"}, "x", 1) ==
		pass2Key("ovf", "s", "h", []string{"a"}, "b\x00x", 1) {
		t.Fatal("chain/seed boundary ambiguity")
	}
}
