package edit

import (
	"reflect"
	"testing"

	"repro/internal/ctoken"
)

func TestMinimizeTrimsCommonAffixes(t *testing.T) {
	src := "char buf[16];"
	// Replace the whole declaration, changing only the size digits.
	got := Minimize(src, []Delta{Replace(ctoken.Extent{Pos: 0, End: 13}, "char buf[32];")})
	want := []Delta{Replace(ctoken.Extent{Pos: 9, End: 11}, "32")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Minimize = %v, want %v", got, want)
	}
}

func TestMinimizeDropsNoOps(t *testing.T) {
	src := "abc"
	got := Minimize(src, []Delta{
		Replace(ctoken.Extent{Pos: 0, End: 3}, "abc"), // identity replace
		Insert(1, ""),                           // empty insert
		{Extent: ctoken.Extent{Pos: 2, End: 2}}, // empty delete
	})
	if len(got) != 0 {
		t.Fatalf("no-op deltas survived: %v", got)
	}
}

func TestMinimizePreservesApplyResult(t *testing.T) {
	src := "void f(void) { char b[8]; strcpy(b, \"x\"); }"
	cases := [][]Delta{
		{Replace(ctoken.Extent{Pos: 0, End: ctoken.Pos(len(src))}, src)},
		{Replace(ctoken.Extent{Pos: 0, End: ctoken.Pos(len(src))}, src[:20]+"X"+src[21:])},
		{Replace(ctoken.Extent{Pos: 5, End: 30}, src[5:30]+"/*tail*/")},
		{Insert(3, "yy"), Delta{Extent: ctoken.Extent{Pos: 10, End: 12}}},
		{Replace(ctoken.Extent{Pos: 4, End: 10}, "aaaa")},
	}
	for _, deltas := range cases {
		want, err := NewScript(deltas...).Apply(src)
		if err != nil {
			t.Fatalf("reference apply: %v", err)
		}
		got, err := NewScript(Minimize(src, deltas)...).Apply(src)
		if err != nil {
			t.Fatalf("minimized apply: %v", err)
		}
		if got != want {
			t.Fatalf("Minimize changed Apply result:\nraw: %q\nmin: %q", want, got)
		}
	}
}

func TestMinimizeShrinksTouchedSpan(t *testing.T) {
	// A whole-file resend with a one-byte change must leave extents
	// outside the changed byte exactly remappable.
	src := "aaaa bbbb cccc"
	edited := "aaaa bXbb cccc"
	min := Minimize(src, []Delta{Replace(ctoken.Extent{Pos: 0, End: ctoken.Pos(len(src))}, edited)})
	if len(min) != 1 || min[0].Extent.Len() != 1 || min[0].Extent.Pos != 6 {
		t.Fatalf("resend not minimized to the changed byte: %v", min)
	}
	m := NewMapper(NewScript(min...))
	if ne, exact := m.MapExtent(ctoken.Extent{Pos: 10, End: 14}); !exact || ne.Pos != 10 {
		t.Fatalf("extent outside the change must remap exactly: %v exact=%v", ne, exact)
	}
}

func TestMinimizePassesThroughOutOfBounds(t *testing.T) {
	src := "abc"
	d := []Delta{Replace(ctoken.Extent{Pos: 1, End: 99}, "zzz")}
	got := Minimize(src, d)
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("out-of-bounds delta rewritten: %v", got)
	}
	if err := NewScript(got...).Validate(len(src)); err == nil {
		t.Fatal("Validate must still reject the passed-through delta")
	}
}

func TestMinimizeDeleteOverlapCase(t *testing.T) {
	// Deleting one of two identical runs: trimming must keep a
	// well-formed single delta whose application matches.
	src := "xxxxyyyy"
	d := []Delta{Replace(ctoken.Extent{Pos: 0, End: 8}, "xxyy")}
	min := Minimize(src, d)
	got, err := NewScript(min...).Apply(src)
	if err != nil {
		t.Fatal(err)
	}
	if got != "xxyy" {
		t.Fatalf("minimized apply = %q", got)
	}
}
