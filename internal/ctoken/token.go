// Package ctoken defines the lexical tokens of the preprocessed C subset
// handled by this repository, together with source positions and extents.
//
// Every token and every AST node carries a byte-offset extent into the
// original source text. Source-to-source transformations (see internal/slr
// and internal/str) depend on these extents to produce minimal textual
// edits, following the paper's requirement that analyses and rewrites stay
// at source level rather than on a compiler IR.
package ctoken

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Enums start at one so that the zero Kind is invalid and
// accidental zero values are caught early.
const (
	// KindInvalid is the zero value and never produced by the lexer.
	KindInvalid Kind = iota

	// Literals and identifiers.
	KindIdent      // foo
	KindIntLit     // 123, 0x1F, 077
	KindFloatLit   // 1.5, 1e9
	KindCharLit    // 'a', '\n'
	KindStringLit  // "abc"
	KindKeyword    // int, char, if, while, ...
	KindPunct      // + - * / etc.
	KindEOF        // end of input
	KindComment    // /* ... */ or // ... (retained for source fidelity)
	KindDirective  // residual # line markers from preprocessing
	KindWhitespace // retained only by the raw scanner mode
)

var _kindNames = map[Kind]string{
	KindInvalid:    "invalid",
	KindIdent:      "identifier",
	KindIntLit:     "integer literal",
	KindFloatLit:   "float literal",
	KindCharLit:    "char literal",
	KindStringLit:  "string literal",
	KindKeyword:    "keyword",
	KindPunct:      "punctuator",
	KindEOF:        "EOF",
	KindComment:    "comment",
	KindDirective:  "directive",
	KindWhitespace: "whitespace",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := _kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a byte offset into the source text of a translation unit.
type Pos int

// NoPos is the canonical "position unknown" value.
const NoPos Pos = -1

// IsValid reports whether the position refers to a real source location.
func (p Pos) IsValid() bool { return p >= 0 }

// Extent is a half-open byte range [Pos, End) within the source text.
type Extent struct {
	Pos Pos // first byte
	End Pos // one past the last byte
}

// NoExtent is the canonical "extent unknown" value.
var NoExtent = Extent{Pos: NoPos, End: NoPos}

// IsValid reports whether both endpoints are valid and ordered.
func (e Extent) IsValid() bool { return e.Pos.IsValid() && e.End >= e.Pos }

// Len returns the number of bytes covered by the extent.
func (e Extent) Len() int {
	if !e.IsValid() {
		return 0
	}
	return int(e.End - e.Pos)
}

// Covers reports whether e fully contains other.
func (e Extent) Covers(other Extent) bool {
	return e.IsValid() && other.IsValid() && e.Pos <= other.Pos && other.End <= e.End
}

// Overlaps reports whether the two extents share at least one byte.
func (e Extent) Overlaps(other Extent) bool {
	return e.IsValid() && other.IsValid() && e.Pos < other.End && other.Pos < e.End
}

// Union returns the smallest extent covering both e and other.
func (e Extent) Union(other Extent) Extent {
	if !e.IsValid() {
		return other
	}
	if !other.IsValid() {
		return e
	}
	u := e
	if other.Pos < u.Pos {
		u.Pos = other.Pos
	}
	if other.End > u.End {
		u.End = other.End
	}
	return u
}

// Token is a single lexical token with its source extent.
type Token struct {
	Kind   Kind
	Text   string // exact source spelling
	Extent Extent
}

// Is reports whether the token is a punctuator or keyword with the given
// spelling.
func (t Token) Is(text string) bool {
	return (t.Kind == KindPunct || t.Kind == KindKeyword) && t.Text == text
}

// IsKeyword reports whether the token is the given keyword.
func (t Token) IsKeyword(kw string) bool { return t.Kind == KindKeyword && t.Text == kw }

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Kind == KindEOF {
		return "EOF"
	}
	return fmt.Sprintf("%s %q", t.Kind, t.Text)
}

// PunctLen returns the length of the longest C punctuator starting at
// src[off], or 0 when none starts there. It is the one punctuator table
// of the repository: the C lexer and the preprocessor's scanner (which
// adds '#' and '##' of its own) both call it.
func PunctLen(src string, off int) int {
	var c1, c2 byte
	if off+1 < len(src) {
		c1 = src[off+1]
	}
	if off+2 < len(src) {
		c2 = src[off+2]
	}
	switch c := src[off]; c {
	case '<', '>': // < << <= <<= > >> >= >>=
		switch {
		case c1 == c && c2 == '=':
			return 3
		case c1 == c || c1 == '=':
			return 2
		}
	case '.': // . ...
		if c1 == '.' && c2 == '.' {
			return 3
		}
	case '-': // - -> -- -=
		if c1 == '>' || c1 == '-' || c1 == '=' {
			return 2
		}
	case '+', '&', '|': // + ++ += & && &= | || |=
		if c1 == c || c1 == '=' {
			return 2
		}
	case '*', '/', '%', '^', '=', '!': // x x=
		if c1 == '=' {
			return 2
		}
	case '[', ']', '(', ')', '{', '}', '~', '?', ':', ';', ',':
	default:
		return 0
	}
	return 1
}

// Keywords recognised by the lexer. This is the C89/C99 keyword set that the
// paper's target programs use, plus a handful of common extensions that
// appear in preprocessed sources (e.g. __restrict).
var _keywords = map[string]struct{}{
	"auto": {}, "break": {}, "case": {}, "char": {}, "const": {},
	"continue": {}, "default": {}, "do": {}, "double": {}, "else": {},
	"enum": {}, "extern": {}, "float": {}, "for": {}, "goto": {},
	"if": {}, "inline": {}, "int": {}, "long": {}, "register": {},
	"restrict": {}, "return": {}, "short": {}, "signed": {}, "sizeof": {},
	"static": {}, "struct": {}, "switch": {}, "typedef": {}, "union": {},
	"unsigned": {}, "void": {}, "volatile": {}, "while": {},
	"_Bool": {}, "__restrict": {}, "__inline": {}, "__extension__": {},
}

// IsKeywordText reports whether the identifier spelling is a reserved word.
func IsKeywordText(s string) bool {
	_, ok := _keywords[s]
	return ok
}

// File maps byte offsets to human line/column coordinates for one source
// file. It is immutable after construction.
type File struct {
	name      string
	src       string
	lineStart []int // byte offset of each line start, ascending
}

// NewFile indexes src for position translation. The name is used only for
// diagnostics.
func NewFile(name, src string) *File {
	starts := make([]int, 1, 64)
	starts[0] = 0
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			starts = append(starts, i+1)
		}
	}
	return &File{name: name, src: src, lineStart: starts}
}

// Name returns the file name given at construction.
func (f *File) Name() string { return f.name }

// Src returns the full source text.
func (f *File) Src() string { return f.src }

// Size returns the length of the source text in bytes.
func (f *File) Size() int { return len(f.src) }

// Position converts a byte offset into 1-based line/column coordinates.
func (f *File) Position(p Pos) Position {
	if !p.IsValid() || int(p) > len(f.src) {
		return Position{File: f.name, Line: 0, Col: 0}
	}
	// Binary search for the greatest line start <= p.
	lo, hi := 0, len(f.lineStart)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.lineStart[mid] <= int(p) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return Position{File: f.name, Line: lo + 1, Col: int(p) - f.lineStart[lo] + 1}
}

// Slice returns the source text covered by the extent.
func (f *File) Slice(e Extent) string {
	if !e.IsValid() || int(e.End) > len(f.src) {
		return ""
	}
	return f.src[e.Pos:e.End]
}

// Indent returns the whitespace prefix of the line p is on.
func (f *File) Indent(p Pos) string {
	lineStart := int(p)
	for lineStart > 0 && f.src[lineStart-1] != '\n' {
		lineStart--
	}
	end := lineStart
	for end < len(f.src) && (f.src[end] == ' ' || f.src[end] == '\t') {
		end++
	}
	return f.src[lineStart:end]
}

// Position is a human-readable source coordinate.
type Position struct {
	File string
	Line int // 1-based
	Col  int // 1-based
}

// String renders the position as file:line:col.
func (p Position) String() string {
	if p.Line == 0 {
		return p.File + ":?"
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}
