package edit

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ctoken"
)

func ext(pos, end int) ctoken.Extent {
	return ctoken.Extent{Pos: ctoken.Pos(pos), End: ctoken.Pos(end)}
}

func mustApply(t *testing.T, s *Script, src string) string {
	t.Helper()
	out, err := s.Apply(src)
	if err != nil {
		t.Fatalf("Apply(%q): %v", src, err)
	}
	return out
}

func TestApplyBasics(t *testing.T) {
	src := "hello world"
	tests := []struct {
		name string
		s    *Script
		want string
	}{
		{"empty script", NewScript(), "hello world"},
		{"insert at start", NewScript(Insert(0, ">> ")), ">> hello world"},
		{"insert at EOF", NewScript(Insert(ctoken.Pos(len(src)), "!")), "hello world!"},
		{"delete word", NewScript(Delete(ext(5, 11))), "hello"},
		{"replace word", NewScript(Replace(ext(6, 11), "gopher")), "hello gopher"},
		{"delete everything", NewScript(Delete(ext(0, 11))), ""},
		{"replace everything", NewScript(Replace(ext(0, 11), "x")), "x"},
		{
			"unsorted deltas sort before applying",
			NewScript(Replace(ext(6, 11), "there"), Replace(ext(0, 5), "why")),
			"why there",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := mustApply(t, tc.s, src); got != tc.want {
				t.Fatalf("got %q, want %q", got, tc.want)
			}
		})
	}
}

// Adjacent deltas — one ending exactly where the next starts — must not
// be treated as overlapping, in either queue order.
func TestApplyAdjacentDeltas(t *testing.T) {
	src := "abcdef"
	s := NewScript(Delete(ext(0, 2)), Replace(ext(2, 4), "XY"), Delete(ext(4, 6)))
	if got := mustApply(t, s, src); got != "XY" {
		t.Fatalf("adjacent deltas: got %q, want %q", got, "XY")
	}
	// Insert exactly at a deletion's end boundary.
	s = NewScript(Delete(ext(0, 3)), Insert(3, "Z"))
	if got := mustApply(t, s, src); got != "Zdef" {
		t.Fatalf("insert at deletion end: got %q, want %q", got, "Zdef")
	}
	// Insert exactly at a replacement's start: the insert sorts first.
	s = NewScript(Replace(ext(3, 6), "!"), Insert(3, "Z"))
	if got := mustApply(t, s, src); got != "abcZ!" {
		t.Fatalf("insert at replacement start: got %q, want %q", got, "abcZ!")
	}
}

// Multiple zero-width inserts at one position apply in queue order.
func TestApplyZeroWidthInsertOrder(t *testing.T) {
	src := "ab"
	s := NewScript(Insert(1, "1"), Insert(1, "2"), Insert(1, "3"))
	if got := mustApply(t, s, src); got != "a123b" {
		t.Fatalf("queue order: got %q, want %q", got, "a123b")
	}
	// Same position, added in a different order.
	s = NewScript(Insert(1, "3"), Insert(1, "1"), Insert(1, "2"))
	if got := mustApply(t, s, src); got != "a312b" {
		t.Fatalf("queue order preserved: got %q, want %q", got, "a312b")
	}
}

func TestApplyAtEOF(t *testing.T) {
	src := "end"
	eof := ctoken.Pos(len(src))
	// Insert at EOF, delete ending at EOF, replace ending at EOF.
	if got := mustApply(t, NewScript(Insert(eof, ".")), src); got != "end." {
		t.Fatalf("insert at EOF: got %q", got)
	}
	if got := mustApply(t, NewScript(Delete(ext(1, 3))), src); got != "e" {
		t.Fatalf("delete to EOF: got %q", got)
	}
	if got := mustApply(t, NewScript(Replace(ext(2, 3), "ough")), src); got != "enough" {
		t.Fatalf("replace to EOF: got %q", got)
	}
	// Empty source: only inserts at 0 are legal.
	if got := mustApply(t, NewScript(Insert(0, "new")), ""); got != "new" {
		t.Fatalf("insert into empty: got %q", got)
	}
}

func TestValidateErrors(t *testing.T) {
	src := "0123456789"
	var be *BoundsError
	var oe *OverlapError

	_, err := NewScript(Delete(ext(5, 11))).Apply(src)
	if !errors.As(err, &be) {
		t.Fatalf("past-EOF delete: got %v, want BoundsError", err)
	}
	if be.SrcLen != 10 || be.Index != 0 {
		t.Fatalf("BoundsError fields: %+v", be)
	}

	_, err = NewScript(Delta{Extent: ext(7, 3)}).Apply(src)
	if !errors.As(err, &be) {
		t.Fatalf("inverted extent: got %v, want BoundsError", err)
	}

	_, err = NewScript(Delete(ext(0, 5)), Replace(ext(4, 8), "x")).Apply(src)
	if !errors.As(err, &oe) {
		t.Fatalf("overlap: got %v, want OverlapError", err)
	}
	if oe.At != 4 || oe.Index != 1 {
		t.Fatalf("OverlapError fields: %+v", oe)
	}

	// Insert strictly inside a deleted span is an overlap (ambiguous).
	_, err = NewScript(Delete(ext(0, 5)), Insert(3, "x")).Apply(src)
	if !errors.As(err, &oe) {
		t.Fatalf("insert inside deletion: got %v, want OverlapError", err)
	}

	// Validate alone agrees with Apply.
	if err := Validate(10, []Delta{Delete(ext(0, 5)), Replace(ext(4, 8), "x")}); err == nil {
		t.Fatal("Validate missed the overlap")
	}
	if err := Validate(10, []Delta{Delete(ext(0, 5)), Insert(5, "x"), Delete(ext(5, 7))}); err != nil {
		t.Fatalf("Validate rejected legal adjacency: %v", err)
	}
}

// SetOwner stamps every later Add that carries no owner of its own, and
// owners survive the sort by extent and name the delta in errors.
func TestScriptOwners(t *testing.T) {
	s := NewScript()
	s.SetOwner("site:0")
	s.Add(Replace(ext(7, 8), "b"))
	s.SetOwner("site:1")
	s.Add(Replace(ext(1, 2), "a"))
	s.Add(Delta{Extent: ext(4, 4), Text: "x", Owner: "func:f"})
	want := []Delta{
		{Extent: ext(1, 2), Text: "a", Owner: "site:1"},
		{Extent: ext(4, 4), Text: "x", Owner: "func:f"},
		{Extent: ext(7, 8), Text: "b", Owner: "site:0"},
	}
	if got := s.Deltas(); !slices.Equal(got, want) {
		t.Fatalf("Deltas = %v, want %v", got, want)
	}

	s.SetOwner("site:2")
	s.Add(Replace(ext(3, 5), "y"))
	_, err := s.Apply("0123456789")
	var oe *OverlapError
	if !errors.As(err, &oe) || oe.Delta.Owner != "func:f" || !strings.Contains(err.Error(), "of func:f") {
		t.Fatalf("overlap error %v does not name the owner func:f", err)
	}
}

// randScript builds a valid random script against a text of length n:
// non-overlapping spans, random insert/delete/replace mix.
func randScript(rng *rand.Rand, n int) *Script {
	s := NewScript()
	pos := 0
	for pos <= n {
		gap := rng.Intn(6)
		pos += gap
		if pos > n {
			break
		}
		switch rng.Intn(3) {
		case 0: // insert
			s.Add(Insert(ctoken.Pos(pos), randText(rng)))
			pos++ // keep subsequent spans clear of this boundary
		case 1: // delete
			end := pos + rng.Intn(4)
			if end > n {
				end = n
			}
			s.Add(Delete(ext(pos, end)))
			pos = end + 1
		default: // replace
			end := pos + rng.Intn(4)
			if end > n {
				end = n
			}
			s.Add(Replace(ext(pos, end), randText(rng)))
			pos = end + 1
		}
		if rng.Intn(3) == 0 {
			break
		}
	}
	return s
}

func randText(rng *rand.Rand) string {
	const alphabet = "xyz_AB"
	n := rng.Intn(5)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func TestMapperOldToNew(t *testing.T) {
	src := "0123456789"
	s := NewScript(Delete(ext(2, 4)), Insert(6, "ab")) // "01" + "45" + "ab" + "6789"
	out := mustApply(t, s, src)
	if out != "0145ab6789" {
		t.Fatalf("setup: %q", out)
	}
	m := NewMapper(s)
	cases := []struct{ old, new int }{
		{0, 0}, {1, 1},
		{2, 2}, {3, 2}, // inside deletion: collapse to its new start
		{4, 2}, {5, 3},
		{6, 6}, // right affinity: lands after "ab"
		{7, 7}, {9, 9}, {10, 10},
	}
	for _, c := range cases {
		if got := m.OldToNew(ctoken.Pos(c.old)); int(got) != c.new {
			t.Errorf("OldToNew(%d) = %d, want %d", c.old, got, c.new)
		}
	}
}

func TestMapExtent(t *testing.T) {
	src := "0123456789abcdef"
	s := NewScript(Delete(ext(2, 4)), Insert(8, "XY"), Replace(ext(10, 12), "z"))
	out := mustApply(t, s, src)
	m := NewMapper(s)

	// Untouched extent after all the action shifts exactly.
	mapped, exact := m.MapExtent(ext(12, 16))
	if !exact {
		t.Fatal("untouched extent reported inexact")
	}
	if out[mapped.Pos:mapped.End] != src[12:16] {
		t.Fatalf("mapped text %q, want %q", out[mapped.Pos:mapped.End], src[12:16])
	}

	// Untouched extent between deltas.
	mapped, exact = m.MapExtent(ext(4, 8))
	if !exact || out[mapped.Pos:mapped.End] != src[4:8] {
		t.Fatalf("between deltas: exact=%v text=%q", exact, out[mapped.Pos:mapped.End])
	}

	// Extent with an insertion exactly at its end stays exact and does
	// not swallow the inserted text.
	mapped, exact = m.MapExtent(ext(6, 8))
	if !exact || out[mapped.Pos:mapped.End] != src[6:8] {
		t.Fatalf("insert at end: exact=%v text=%q", exact, out[mapped.Pos:mapped.End])
	}

	// Extent with an insertion exactly at its start stays exact; right
	// affinity keeps the inserted text out.
	mapped, exact = m.MapExtent(ext(8, 10))
	if !exact || out[mapped.Pos:mapped.End] != src[8:10] {
		t.Fatalf("insert at start: exact=%v text=%q", exact, out[mapped.Pos:mapped.End])
	}

	// Extent overlapping a replacement is inexact.
	if _, exact = m.MapExtent(ext(9, 11)); exact {
		t.Fatal("overlapping replacement reported exact")
	}
	// Extent containing an insertion strictly inside is inexact.
	if _, exact = m.MapExtent(ext(7, 9)); exact {
		t.Fatal("interior insertion reported exact")
	}
	// Extent inside a deleted span collapses.
	mapped, exact = m.MapExtent(ext(2, 3))
	if exact || mapped.Len() != 0 {
		t.Fatalf("deleted span: exact=%v mapped=%+v", exact, mapped)
	}
}

// TestPropertyNonOverlappingEditsSpliceCorrectly queues random
// non-overlapping deltas in shuffled order and checks Apply against the
// back-to-front reference splice.
func TestPropertyNonOverlappingEditsSpliceCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := strings.Repeat("abcdefghij", 8)
	for i := 0; i < 300; i++ {
		deltas := randScript(rng, len(src)).Deltas()
		want := referenceApply(src, deltas)
		rng.Shuffle(len(deltas), func(a, b int) { deltas[a], deltas[b] = deltas[b], deltas[a] })
		if out := mustApply(t, NewScript(deltas...), src); out != want {
			t.Fatalf("iter %d: Apply gave %q, reference %q\nqueued=%v", i, out, want, deltas)
		}
	}
}

// Exactness property: whenever MapExtent reports exact, the mapped
// extent's bytes in the edited text equal the original extent's bytes.
func TestMapExtentExactnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	src := strings.Repeat("0123456789", 10)
	for i := 0; i < 300; i++ {
		s := randScript(rng, len(src))
		out := mustApply(t, s, src)
		m := NewMapper(s)
		for j := 0; j < 50; j++ {
			a := rng.Intn(len(src))
			b := a + rng.Intn(len(src)-a)
			e := ext(a, b)
			mapped, exact := m.MapExtent(e)
			if !exact {
				continue
			}
			if int(mapped.End) > len(out) || mapped.Pos > mapped.End {
				t.Fatalf("iter %d: exact extent out of bounds: %+v -> %+v (out %d bytes)\nscript=%v",
					i, e, mapped, len(out), s.Deltas())
			}
			if out[mapped.Pos:mapped.End] != src[e.Pos:e.End] {
				t.Fatalf("iter %d: exact extent changed: %+v(%q) -> %+v(%q)\nscript=%v",
					i, e, src[e.Pos:e.End], mapped, out[mapped.Pos:mapped.End], s.Deltas())
			}
		}
	}
}
