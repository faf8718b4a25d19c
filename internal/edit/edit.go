// Package edit models source modifications as position-stable deltas:
// insertions, deletions and replacements expressed against the byte
// offsets of one fixed original text. Because every delta is anchored in
// original coordinates, a producer never tracks offset drift — deltas
// collected in any order are sorted, validated against the original
// length, and spliced in one pass.
//
// Delta is the one edit type in the tree. The transformations (SLR, STR)
// queue their repairs into a Script, tagging each delta with the repair
// group that owns it; project mode remaps those deltas through the
// preprocessor's source map and splices the survivors; and
// internal/incremental applies editor traffic (LSP didChange batches) as
// Scripts and carries analysis facts across them with Mapper. The
// package sits at the leaf of the dependency graph and imports only
// internal/ctoken.
package edit

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ctoken"
)

// Delta is one insertion, deletion or replacement against the original
// text. The extent is a half-open byte range in original coordinates; a
// zero-length extent inserts Text at Extent.Pos, an empty Text deletes
// the extent, and the general form replaces the extent's bytes with
// Text.
type Delta struct {
	Extent ctoken.Extent
	Text   string
	// Owner groups deltas that must apply (or be dropped) together — one
	// SLR call site ("site:<n>"), one STR function ("func:<name>").
	// Project mode uses it to decline a whole repair when any of its
	// deltas fails to map back through the preprocessor's source map.
	// Empty for standalone deltas.
	Owner string
}

// Insert builds a pure insertion at pos.
func Insert(pos ctoken.Pos, text string) Delta {
	return Delta{Extent: ctoken.Extent{Pos: pos, End: pos}, Text: text}
}

// Delete builds a pure deletion of ext.
func Delete(ext ctoken.Extent) Delta {
	return Delta{Extent: ext}
}

// Replace builds a replacement of ext with text.
func Replace(ext ctoken.Extent, text string) Delta {
	return Delta{Extent: ext, Text: text}
}

// IsInsert reports a zero-width delta.
func (d Delta) IsInsert() bool { return d.Extent.Len() == 0 }

// Shift returns the length change the delta contributes.
func (d Delta) Shift() int { return len(d.Text) - d.Extent.Len() }

// String renders the delta compactly for logs and error messages,
// naming its owner when it has one.
func (d Delta) String() string {
	var s string
	switch {
	case d.IsInsert():
		s = fmt.Sprintf("insert %q at %d", clip(d.Text), d.Extent.Pos)
	case d.Text == "":
		s = fmt.Sprintf("delete [%d,%d)", d.Extent.Pos, d.Extent.End)
	default:
		s = fmt.Sprintf("replace [%d,%d) with %q", d.Extent.Pos, d.Extent.End, clip(d.Text))
	}
	if d.Owner != "" {
		s += " of " + d.Owner
	}
	return s
}

func clip(s string) string {
	if len(s) > 24 {
		return s[:24] + "…"
	}
	return s
}

// BoundsError reports a delta that does not fit the original text. Index
// is the delta's position in the sorted order that was being applied.
type BoundsError struct {
	Index  int
	Delta  Delta
	SrcLen int
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("edit: delta %d (%s) has invalid extent [%d,%d) for source of %d bytes",
		e.Index, e.Delta, e.Delta.Extent.Pos, e.Delta.Extent.End, e.SrcLen)
}

// OverlapError reports two deltas that claim the same original bytes.
// Index is the later delta's position in the sorted order.
type OverlapError struct {
	Index int
	Delta Delta
	At    ctoken.Pos
}

func (e *OverlapError) Error() string {
	return fmt.Sprintf("edit: delta %d (%s) overlaps a previous delta at offset %d",
		e.Index, e.Delta, e.At)
}

// Sort orders deltas by start position, then end position, stably, so
// same-position insertions keep their queue order and an insertion at a
// replaced span's start lands before the replacement. It sorts in place
// and returns its argument for chaining.
func Sort(deltas []Delta) []Delta {
	slices.SortStableFunc(deltas, func(a, b Delta) int {
		if c := cmp.Compare(a.Extent.Pos, b.Extent.Pos); c != 0 {
			return c
		}
		return cmp.Compare(a.Extent.End, b.Extent.End)
	})
	return deltas
}

// Validate checks deltas against a source length: every extent must be
// valid and in bounds, and no two deltas may claim the same original
// byte. Multiple insertions at one position are legal and apply in queue
// order. The slice is not modified.
func Validate(srcLen int, deltas []Delta) error {
	cursor := ctoken.Pos(0)
	for i, d := range Sort(append([]Delta(nil), deltas...)) {
		if !d.Extent.IsValid() || int(d.Extent.End) > srcLen {
			return &BoundsError{Index: i, Delta: d, SrcLen: srcLen}
		}
		if d.Extent.Pos < cursor {
			return &OverlapError{Index: i, Delta: d, At: d.Extent.Pos}
		}
		if d.Extent.End > cursor {
			cursor = d.Extent.End
		}
	}
	return nil
}

// Splice applies sorted deltas to src in one pass, checking bounds and
// overlap as it goes with the same errors Validate returns. It is
// the tree's one splice implementation; callers sort first (Sort).
func Splice(src string, deltas []Delta) (string, error) {
	var sb strings.Builder
	grow := len(src)
	for _, d := range deltas {
		grow += len(d.Text)
	}
	sb.Grow(grow)
	cursor := 0
	for i, d := range deltas {
		if !d.Extent.IsValid() || int(d.Extent.End) > len(src) {
			return "", &BoundsError{Index: i, Delta: d, SrcLen: len(src)}
		}
		if int(d.Extent.Pos) < cursor {
			return "", &OverlapError{Index: i, Delta: d, At: d.Extent.Pos}
		}
		sb.WriteString(src[cursor:d.Extent.Pos])
		sb.WriteString(d.Text)
		cursor = int(d.Extent.End)
	}
	sb.WriteString(src[cursor:])
	return sb.String(), nil
}

// Script is an ordered batch of deltas against one original text.
type Script struct {
	deltas []Delta
	owner  string
}

// NewScript builds a script from deltas. The deltas are copied and kept
// in arrival order; sorting happens at application time so queue order
// of same-position inserts survives.
func NewScript(deltas ...Delta) *Script {
	return &Script{deltas: append([]Delta(nil), deltas...)}
}

// SetOwner makes owner the Owner of every delta Add queues from now on
// that carries none. Transformations set it once per repair unit instead
// of threading an owner through every queue call.
func (s *Script) SetOwner(owner string) { s.owner = owner }

// Add appends a delta and returns the script for chaining.
func (s *Script) Add(d Delta) *Script {
	if d.Owner == "" {
		d.Owner = s.owner
	}
	s.deltas = append(s.deltas, d)
	return s
}

// Deltas returns a sorted copy of the script's deltas.
func (s *Script) Deltas() []Delta {
	return Sort(append([]Delta(nil), s.deltas...))
}

// Validate checks the script against a source length.
func (s *Script) Validate(srcLen int) error {
	return Validate(srcLen, s.deltas)
}

// Apply splices the script into src; a delta out of bounds or
// overlapping an earlier one is a *BoundsError or *OverlapError.
func (s *Script) Apply(src string) (string, error) {
	return Splice(src, s.Deltas())
}

// Mapper remaps byte offsets across one applied script: OldToNew carries
// positions of the original text into the edited text. Positions inside
// a replaced or deleted span collapse to the span's (new) start. This is
// the one offset-remapping implementation in the tree — consumers that
// need to know whether a range survived an edit intact use MapExtent,
// which additionally reports whether any delta touched the range.
type Mapper struct {
	deltas []Delta // sorted
}

// NewMapper builds a mapper for the script. The script must be valid for
// the text it was applied to; Mapper does not re-validate.
func NewMapper(s *Script) *Mapper {
	return &Mapper{deltas: s.Deltas()}
}

// mapPos maps an original position forward. With right affinity an
// insertion exactly at p shifts p past the inserted text; with left
// affinity it does not.
func (m *Mapper) mapPos(p ctoken.Pos, right bool) ctoken.Pos {
	shift := 0
	for _, d := range m.deltas {
		if d.Extent.Pos > p {
			break
		}
		if d.Extent.Pos == p && !(right && d.IsInsert()) {
			break
		}
		if !d.IsInsert() && d.Extent.End > p {
			// p lies inside a replaced/deleted span: collapse to the
			// span's new start.
			return ctoken.Pos(int(d.Extent.Pos) + shift)
		}
		shift += d.Shift()
	}
	return ctoken.Pos(int(p) + shift)
}

// OldToNew maps a position in the original text to the edited text with
// right affinity: an insertion exactly at the position lands before it.
func (m *Mapper) OldToNew(p ctoken.Pos) ctoken.Pos { return m.mapPos(p, true) }

// MapExtent maps an original-coordinate extent into the edited text.
// The boolean reports exactness: true when no delta landed inside the
// extent, so the mapped extent covers byte-for-byte the same content;
// false when the extent was touched and the result is the collapsed
// approximation. Insertions exactly at either endpoint leave the extent
// exact: the mapped start uses right affinity and the mapped end left
// affinity, so endpoint insertions fall outside the mapped range.
func (m *Mapper) MapExtent(e ctoken.Extent) (ctoken.Extent, bool) {
	exact := true
	for _, d := range m.deltas {
		if d.Extent.Pos >= e.End {
			break
		}
		switch {
		case d.IsInsert():
			if d.Extent.Pos > e.Pos && d.Extent.Pos < e.End {
				exact = false
			}
		case d.Extent.Overlaps(e):
			exact = false
		}
	}
	mapped := ctoken.Extent{Pos: m.mapPos(e.Pos, true), End: m.mapPos(e.End, false)}
	if mapped.End < mapped.Pos {
		// A zero-width extent sitting exactly on an insertion point:
		// collapse consistently to the left-affinity position.
		mapped.Pos = mapped.End
	}
	return mapped, exact
}

// Minimize shrinks each delta to the bytes it actually changes against
// src, by trimming the common prefix and suffix between the replaced
// span and the replacement text, and drops deltas that change nothing.
// Out-of-bounds deltas pass through untouched so Validate can report
// them.
//
// Minimizing never changes what Apply produces; it changes what the
// Mapper considers touched. A client that re-sends a whole span (or the
// whole file) with a one-byte change would otherwise report every
// retained extent inside the span as edited, defeating incremental
// reuse — and, worse, a replace that covers bytes without changing them
// collapses extents that a fresh parse would keep, so downstream
// consumers that trust exact remaps (overflow.Memo) rely on scripts
// being minimized first.
func Minimize(src string, deltas []Delta) []Delta {
	out := make([]Delta, 0, len(deltas))
	for _, d := range deltas {
		if d.Extent.Pos < 0 || d.Extent.End < d.Extent.Pos || int(d.Extent.End) > len(src) {
			out = append(out, d)
			continue
		}
		old := src[d.Extent.Pos:d.Extent.End]
		rep := d.Text
		p := 0
		for p < len(old) && p < len(rep) && old[p] == rep[p] {
			p++
		}
		sfx := 0
		for sfx < len(old)-p && sfx < len(rep)-p && old[len(old)-1-sfx] == rep[len(rep)-1-sfx] {
			sfx++
		}
		if p == len(old) && p == len(rep) {
			continue // pure no-op
		}
		out = append(out, Delta{
			Extent: ctoken.Extent{Pos: d.Extent.Pos + ctoken.Pos(p), End: d.Extent.End - ctoken.Pos(sfx)},
			Text:   rep[p : len(rep)-sfx],
			Owner:  d.Owner,
		})
	}
	return out
}
