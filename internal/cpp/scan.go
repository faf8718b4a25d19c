package cpp

import (
	"strings"

	"repro/internal/ctoken"
)

// pkind classifies a preprocessing token. The set is the C standard's
// pp-token taxonomy collapsed to what expansion needs: identifiers are
// macro candidates, pp-numbers and literals are opaque, punctuators
// matter only for '(' ')' ',' '#' '##' recognition, and newlines are
// kept because directives are line-oriented.
type pkind int

const (
	tkEOF pkind = iota
	tkIdent
	tkNum
	tkStr
	tkChar
	tkPunct
	tkComment
	tkNewline
	tkSplice // a line continuation surrounded by whitespace
	tkOther  // any byte that fits nothing above (kept verbatim)
)

// ptok is one preprocessing token.
type ptok struct {
	kind pkind
	text string // de-spliced spelling
	// file/pos/end locate the raw bytes (including any splices) in the
	// originating file; file is nil and pos/end -1 for synthesized
	// tokens (paste and stringize results, builtin expansions).
	file *srcFile
	pos  int
	end  int
	// ws marks a token preceded by whitespace or a comment; rendering a
	// token list re-inserts a single space there.
	ws bool
	// spliced marks a token whose raw spelling contains a backslash-
	// newline; its de-spliced text differs from the raw bytes, so it can
	// never be copied verbatim.
	spliced bool
	// hide is the macro hide set: names whose expansion produced this
	// token (directly or transitively). A hidden name is never
	// re-expanded, which is what terminates recursive macros.
	hide map[string]bool
}

// hidden reports whether name is in the token's hide set.
func (t *ptok) hidden(name string) bool { return t.hide != nil && t.hide[name] }

// withHide returns a copy of hide with name added (shared maps are never
// mutated: tokens are copied freely during substitution).
func withHide(hide map[string]bool, name string) map[string]bool {
	out := make(map[string]bool, len(hide)+1)
	for k := range hide {
		out[k] = true
	}
	out[name] = true
	return out
}

// unionHide merges two hide sets (nil-tolerant).
func unionHide(a, b map[string]bool) map[string]bool {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// scanner produces preprocessing tokens from one file's raw text. It is
// splice-aware: a backslash-newline inside a token joins the halves and
// marks the token spliced; one between tokens is reported as a tkSplice
// token so the verbatim copier can scrub it from the output.
type scanner struct {
	f   *srcFile
	off int
}

func newScanner(f *srcFile, off int) *scanner { return &scanner{f: f, off: off} }

func (s *scanner) src() string { return s.f.src }

// peekByte returns the byte at off+n without consuming (0 at EOF).
func (s *scanner) peekByte(n int) byte {
	if s.off+n >= len(s.f.src) {
		return 0
	}
	return s.f.src[s.off+n]
}

// spliceAt reports whether a line continuation starts at off: a
// backslash followed by a newline (optionally \r\n).
func spliceAt(src string, off int) (int, bool) {
	if off >= len(src) || src[off] != '\\' {
		return 0, false
	}
	j := off + 1
	if j < len(src) && src[j] == '\r' {
		j++
	}
	if j < len(src) && src[j] == '\n' {
		return j + 1 - off, true
	}
	return 0, false
}

// next scans one token. Horizontal whitespace is consumed and folded
// into the next token's ws flag; newlines, comments and splices are
// returned as their own tokens so line structure stays visible.
func (s *scanner) next() ptok {
	src := s.f.src
	ws := false
	for s.off < len(src) {
		c := src[s.off]
		if c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r' {
			s.off++
			ws = true
			continue
		}
		break
	}
	start := s.off
	if s.off >= len(src) {
		return ptok{kind: tkEOF, file: s.f, pos: start, end: start, ws: ws}
	}
	c := src[s.off]
	if n, ok := spliceAt(src, s.off); ok {
		s.off += n
		return ptok{kind: tkSplice, file: s.f, pos: start, end: s.off, ws: ws}
	}
	switch {
	case c == '\n':
		s.off++
		return ptok{kind: tkNewline, text: "\n", file: s.f, pos: start, end: s.off, ws: ws}
	case c == '/' && s.peekByte(1) == '/':
		return s.scanLineComment(start, ws)
	case c == '/' && s.peekByte(1) == '*':
		return s.scanBlockComment(start, ws)
	case isIdentStart(c):
		return s.scanIdent(start, ws)
	case c >= '0' && c <= '9':
		return s.scanNumber(start, ws)
	case c == '.' && s.peekByte(1) >= '0' && s.peekByte(1) <= '9':
		return s.scanNumber(start, ws)
	case c == '"':
		return s.scanQuoted(start, ws, '"', tkStr)
	case c == '\'':
		return s.scanQuoted(start, ws, '\'', tkChar)
	default:
		return s.scanPunct(start, ws)
	}
}

// collect advances over the token's bytes, following splices, while
// more accepts them, and returns the token's de-spliced text. more sees
// each byte once, in order. Without a splice the text is the source
// bytes themselves, so the common token allocates nothing; a spliced
// token's text is the bytes with its splices cut out. A token holds no
// backslash of its own, so every backslash in it starts a splice.
func (s *scanner) collect(more func(c byte) bool) (text string, spliced bool) {
	src := s.f.src
	start := s.off
	for s.off < len(src) {
		if n, ok := spliceAt(src, s.off); ok {
			s.off += n
			spliced = true
			continue
		}
		if !more(src[s.off]) {
			break
		}
		s.off++
	}
	if !spliced {
		return src[start:s.off], false
	}
	var b strings.Builder
	for i := start; i < s.off; i++ {
		if n, ok := spliceAt(src, i); ok {
			i += n - 1
			continue
		}
		b.WriteByte(src[i])
	}
	return b.String(), true
}

func (s *scanner) scanIdent(start int, ws bool) ptok {
	text, spliced := s.collect(isIdentCont)
	return ptok{kind: tkIdent, text: text, file: s.f, pos: start, end: s.off, ws: ws, spliced: spliced}
}

// scanNumber scans a C pp-number: it deliberately over-matches (letters,
// digits, dots, exponent signs) because the preprocessor never needs the
// value, only the spelling.
func (s *scanner) scanNumber(start int, ws bool) ptok {
	prevExp := false
	text, spliced := s.collect(func(c byte) bool {
		if isIdentCont(c) || c == '.' {
			prevExp = c == 'e' || c == 'E' || c == 'p' || c == 'P'
			return true
		}
		if (c == '+' || c == '-') && prevExp {
			prevExp = false
			return true
		}
		return false
	})
	return ptok{kind: tkNum, text: text, file: s.f, pos: start, end: s.off, ws: ws, spliced: spliced}
}

// scanQuoted scans a string or character literal. An unterminated
// literal ends at the newline (or EOF) without consuming it; the text
// scanned so far is returned as tkOther so downstream stages keep the
// bytes without mistaking them for a literal.
func (s *scanner) scanQuoted(start int, ws bool, quote byte, kind pkind) ptok {
	src := s.f.src
	var b strings.Builder
	spliced := false
	b.WriteByte(quote)
	s.off++
	for s.off < len(src) {
		if n, ok := spliceAt(src, s.off); ok {
			s.off += n
			spliced = true
			continue
		}
		c := src[s.off]
		if c == '\n' {
			return ptok{kind: tkOther, text: b.String(), file: s.f, pos: start, end: s.off, ws: ws, spliced: spliced}
		}
		if c == '\\' && s.off+1 < len(src) {
			b.WriteByte(c)
			b.WriteByte(src[s.off+1])
			s.off += 2
			continue
		}
		b.WriteByte(c)
		s.off++
		if c == quote {
			return ptok{kind: kind, text: b.String(), file: s.f, pos: start, end: s.off, ws: ws, spliced: spliced}
		}
	}
	return ptok{kind: tkOther, text: b.String(), file: s.f, pos: start, end: s.off, ws: ws, spliced: spliced}
}

func (s *scanner) scanLineComment(start int, ws bool) ptok {
	src := s.f.src
	spliced := false
	for s.off < len(src) {
		if n, ok := spliceAt(src, s.off); ok {
			// A line comment continued by a splice swallows the next
			// physical line too (the standard splices before comments are
			// recognized).
			s.off += n
			spliced = true
			continue
		}
		if src[s.off] == '\n' {
			break
		}
		s.off++
	}
	return ptok{kind: tkComment, text: " ", file: s.f, pos: start, end: s.off, ws: ws, spliced: spliced}
}

func (s *scanner) scanBlockComment(start int, ws bool) ptok {
	src := s.f.src
	s.off += 2
	for s.off < len(src) {
		if src[s.off] == '*' && s.off+1 < len(src) && src[s.off+1] == '/' {
			s.off += 2
			return ptok{kind: tkComment, text: " ", file: s.f, pos: start, end: s.off, ws: ws}
		}
		s.off++
	}
	// Unterminated: consume to EOF (an error the lexer downstream will
	// also report; the preprocessor stays quiet and keeps the bytes).
	return ptok{kind: tkComment, text: " ", file: s.f, pos: start, end: s.off, ws: ws}
}

// scanPunct scans the longest punctuator at the offset, or one byte of
// tkOther when none starts there. The preprocessor set adds '#' and '##'
// to the C punctuators. A splice inside a multi-byte punctuator is not
// joined: its halves scan as separate tokens.
func (s *scanner) scanPunct(start int, ws bool) ptok {
	src := s.f.src
	kind := tkPunct
	n := ctoken.PunctLen(src, s.off)
	switch {
	case n > 0:
	case src[s.off] == '#': // # ##
		n = 1
		if s.peekByte(1) == '#' {
			n = 2
		}
	default:
		n = 1
		kind = tkOther
	}
	s.off += n
	return ptok{kind: kind, text: src[start:s.off], file: s.f, pos: start, end: s.off, ws: ws}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
