package cpp

import (
	"sort"

	"repro/internal/ctoken"
)

// SegKind classifies how a run of preprocessed output relates to the
// original sources.
type SegKind int

const (
	// SegDirect: the bytes were copied verbatim from one file; mapping
	// back is exact and offset-linear.
	SegDirect SegKind = iota
	// SegMacro: the bytes are the rendering of a macro expansion; they
	// map (inexactly) to the invocation's extent in the including file.
	SegMacro
	// SegSynth: synthesized glue (a de-spliced token, a separator
	// newline between files); maps inexactly to the nearest original
	// location.
	SegSynth
)

// Segment maps one contiguous run of preprocessed output back to the
// source it came from.
type Segment struct {
	// OutPos/OutEnd is the half-open range in the preprocessed text.
	OutPos, OutEnd int
	// Kind selects how the mapping works.
	Kind SegKind
	// File is the original file the bytes came from (for SegDirect) or
	// the file containing the macro invocation / synthesized point.
	File string
	// OrigPos is the original offset of OutPos for SegDirect segments;
	// for SegMacro/SegSynth it is the start of the invocation extent.
	OrigPos int
	// OrigEnd is OrigPos+len for SegDirect; the invocation end for
	// SegMacro (and OrigPos for SegSynth).
	OrigEnd int
	// Macro names the expanded macro for SegMacro segments.
	Macro string
}

// Origin is a preprocessed extent mapped back to original source.
type Origin struct {
	// File is the original file.
	File string
	// Extent is the corresponding byte range in File. For an exact
	// mapping it covers precisely the same bytes; for an inexact one it
	// is the tightest enclosing range the map knows (for macro
	// expansions, the invocation extent).
	Extent ctoken.Extent
	// Macro names the macro whose expansion covers the extent ("" when
	// the extent is not inside an expansion).
	Macro string
}

// SourceMap maps extents in preprocessed output back to the files the
// preprocessor read. It is immutable after preprocessing.
type SourceMap struct {
	main  string
	segs  []Segment
	files map[string]string       // file name -> content
	pos   map[string]*ctoken.File // lazy line tables
}

// MainFile returns the name of the translation unit's root file.
func (m *SourceMap) MainFile() string { return m.main }

// segAt returns the segment containing output offset p (nil when p is
// outside every segment, which only happens for an empty output).
func (m *SourceMap) segAt(p int) *Segment {
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].OutEnd > p })
	if i >= len(m.segs) || m.segs[i].OutPos > p {
		return nil
	}
	return &m.segs[i]
}

// ToOriginal maps a preprocessed extent back to original source. exact
// reports that the extent corresponds byte-for-byte to Origin.Extent in
// Origin.File: it lies entirely within one verbatim-copied segment. An
// inexact origin still locates the extent (the macro invocation or the
// nearest enclosing range) but MUST NOT be edited in place — the bytes
// the rewriter saw do not exist contiguously in the original file.
func (m *SourceMap) ToOriginal(e ctoken.Extent) (Origin, bool) {
	if !e.IsValid() {
		return Origin{File: m.main, Extent: ctoken.NoExtent}, false
	}
	seg := m.segAt(int(e.Pos))
	if seg == nil && e.Len() == 0 && e.Pos > 0 {
		// Insertion point at end of output: anchor to the segment ending
		// there so appends (e.g. STR's stralloc trailer) remap exactly.
		seg = m.segAt(int(e.Pos) - 1)
		if seg != nil && seg.OutEnd != int(e.Pos) {
			seg = nil
		}
	}
	if seg == nil {
		return Origin{File: m.main, Extent: ctoken.NoExtent}, false
	}
	if seg.Kind == SegDirect {
		start := seg.OrigPos + (int(e.Pos) - seg.OutPos)
		if int(e.End) <= seg.OutEnd {
			return Origin{
				File:   seg.File,
				Extent: ctoken.Extent{Pos: ctoken.Pos(start), End: ctoken.Pos(start + e.Len())},
			}, true
		}
		// Spans past the segment: the covered original bytes are not
		// contiguous (something was removed or expanded in between).
		end := seg.OrigEnd
		if last := m.segAt(int(e.End) - 1); last != nil && last.Kind == SegDirect && last.File == seg.File {
			end = last.OrigPos + (int(e.End) - last.OutPos)
		}
		return Origin{
			File:   seg.File,
			Extent: ctoken.Extent{Pos: ctoken.Pos(start), End: ctoken.Pos(end)},
		}, false
	}
	return Origin{
		File:   seg.File,
		Extent: ctoken.Extent{Pos: ctoken.Pos(seg.OrigPos), End: ctoken.Pos(seg.OrigEnd)},
		Macro:  seg.Macro,
	}, false
}

// Position converts a preprocessed offset into a human-readable position
// in the original source (for macro expansions, the invocation site).
func (m *SourceMap) Position(p ctoken.Pos) ctoken.Position {
	org, _ := m.ToOriginal(ctoken.Extent{Pos: p, End: p})
	if !org.Extent.Pos.IsValid() {
		return ctoken.Position{File: m.main}
	}
	return m.filePos(org.File).Position(org.Extent.Pos)
}

// filePos returns the lazily built line table for an original file.
func (m *SourceMap) filePos(name string) *ctoken.File {
	if f, ok := m.pos[name]; ok {
		return f
	}
	f := ctoken.NewFile(name, m.files[name])
	m.pos[name] = f
	return f
}

// output accumulates preprocessed text and its mapping segments.
type output struct {
	b    []byte
	segs []Segment
}

// copyDirect appends file bytes [pos,end) verbatim, extending the last
// segment when it is contiguous in both coordinate spaces.
func (o *output) copyDirect(f *srcFile, pos, end int) {
	if pos >= end {
		return
	}
	outPos := len(o.b)
	o.b = append(o.b, f.src[pos:end]...)
	if n := len(o.segs); n > 0 {
		last := &o.segs[n-1]
		if last.Kind == SegDirect && last.File == f.name && last.OutEnd == outPos && last.OrigEnd == pos {
			last.OutEnd = len(o.b)
			last.OrigEnd = end
			return
		}
	}
	o.segs = append(o.segs, Segment{
		OutPos: outPos, OutEnd: len(o.b),
		Kind: SegDirect, File: f.name, OrigPos: pos, OrigEnd: end,
	})
}

// emit appends synthesized or expansion text mapped to an original
// extent.
func (o *output) emit(text string, kind SegKind, file string, origPos, origEnd int, macro string) {
	if text == "" {
		return
	}
	outPos := len(o.b)
	o.b = append(o.b, text...)
	o.segs = append(o.segs, Segment{
		OutPos: outPos, OutEnd: len(o.b),
		Kind: kind, File: file, OrigPos: origPos, OrigEnd: origEnd, Macro: macro,
	})
}

// lastByte returns the final output byte so far (0 when empty).
func (o *output) lastByte() byte {
	if len(o.b) == 0 {
		return 0
	}
	return o.b[len(o.b)-1]
}
