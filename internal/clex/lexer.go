// Package clex tokenizes preprocessed C source text.
//
// The lexer is hand-written and byte-oriented. It recognises the full C
// punctuator set, all literal forms used by the paper's target programs
// (decimal/octal/hex integers with suffixes, floats, char and string
// literals with escapes), keywords, identifiers and residual preprocessor
// line markers. Comments are tokenized (not discarded) so that the rewrite
// engine can reproduce source text faithfully, but the parser-facing stream
// filters them out.
package clex

import (
	"fmt"

	"repro/internal/ctoken"
)

// Error describes a lexical error with its source position.
type Error struct {
	Pos ctoken.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("lex error at offset %d: %s", e.Pos, e.Msg) }

// Lexer produces tokens from a source string.
type Lexer struct {
	src    string
	off    int
	errs   []*Error
	tokens []ctoken.Token
}

// bytesPerToken sizes the token slice up front. The corpora run at
// about four bytes per token (3.8 on the 100 KB libtiff unit; 4.6 on
// average and never below 4.0 over the SAMATE and int-corpus programs),
// so a slice of one token per three bytes is never regrown on them.
const bytesPerToken = 3

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, tokens: make([]ctoken.Token, 0, len(src)/bytesPerToken+1)}
}

// Tokenize scans the entire input and returns the token stream, excluding
// whitespace but including comments and directives. The final token is
// always KindEOF. Lexical errors are collected and returned together; the
// token stream is still usable (offending bytes are skipped).
func Tokenize(src string) ([]ctoken.Token, error) {
	l := New(src)
	l.run()
	if len(l.errs) > 0 {
		return l.tokens, l.errs[0]
	}
	return l.tokens, nil
}

// TokenizeForParser scans the input and returns only the tokens the parser
// consumes: comments, directives and whitespace are filtered out, in
// place.
func TokenizeForParser(src string) ([]ctoken.Token, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	out := toks[:0]
	for _, t := range toks {
		switch t.Kind {
		case ctoken.KindComment, ctoken.KindDirective, ctoken.KindWhitespace:
			continue
		default:
			out = append(out, t)
		}
	}
	return out, nil
}

func (l *Lexer) errorf(pos int, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: ctoken.Pos(pos), Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) emit(kind ctoken.Kind, start int) {
	l.tokens = append(l.tokens, ctoken.Token{
		Kind: kind,
		Text: l.src[start:l.off],
		Extent: ctoken.Extent{
			Pos: ctoken.Pos(start),
			End: ctoken.Pos(l.off),
		},
	})
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) run() {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			l.off++
		case c == '#':
			l.scanDirective()
		case c == '/' && l.peekAt(1) == '/':
			l.scanLineComment()
		case c == '/' && l.peekAt(1) == '*':
			l.scanBlockComment()
		case c == 'L' && (l.peekAt(1) == '"' || l.peekAt(1) == '\''):
			// Wide literal prefix; treat as part of the literal. This must
			// precede the identifier case, which would otherwise swallow
			// the L.
			l.off++
			if l.peek() == '"' {
				l.scanStringLit()
			} else {
				l.scanCharLit()
			}
		case isIdentStart(c):
			l.scanIdent()
		case c >= '0' && c <= '9':
			l.scanNumber()
		case c == '.' && l.peekAt(1) >= '0' && l.peekAt(1) <= '9':
			l.scanNumber()
		case c == '\'':
			l.scanCharLit()
		case c == '"':
			l.scanStringLit()
		default:
			l.scanPunct()
		}
	}
	l.tokens = append(l.tokens, ctoken.Token{
		Kind:   ctoken.KindEOF,
		Extent: ctoken.Extent{Pos: ctoken.Pos(len(l.src)), End: ctoken.Pos(len(l.src))},
	})
}

func (l *Lexer) scanDirective() {
	start := l.off
	for l.off < len(l.src) && l.src[l.off] != '\n' {
		// Line continuations extend the directive.
		if l.src[l.off] == '\\' && l.off+1 < len(l.src) && l.src[l.off+1] == '\n' {
			l.off += 2
			continue
		}
		l.off++
	}
	l.emit(ctoken.KindDirective, start)
}

func (l *Lexer) scanLineComment() {
	start := l.off
	for l.off < len(l.src) && l.src[l.off] != '\n' {
		l.off++
	}
	l.emit(ctoken.KindComment, start)
}

func (l *Lexer) scanBlockComment() {
	start := l.off
	l.off += 2
	for l.off < len(l.src) {
		if l.src[l.off] == '*' && l.peekAt(1) == '/' {
			l.off += 2
			l.emit(ctoken.KindComment, start)
			return
		}
		l.off++
	}
	l.errorf(start, "unterminated block comment")
	l.emit(ctoken.KindComment, start)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *Lexer) scanIdent() {
	start := l.off
	for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
		l.off++
	}
	text := l.src[start:l.off]
	// The wide-literal prefix case ("L") is handled in run before this.
	if ctoken.IsKeywordText(text) {
		l.emit(ctoken.KindKeyword, start)
		return
	}
	l.emit(ctoken.KindIdent, start)
}

func (l *Lexer) scanNumber() {
	start := l.off
	isFloat := false
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.off += 2
		for isHexDigit(l.peek()) {
			l.off++
		}
	} else {
		for isDigit(l.peek()) {
			l.off++
		}
		if l.peek() == '.' {
			isFloat = true
			l.off++
			for isDigit(l.peek()) {
				l.off++
			}
		}
		if c := l.peek(); c == 'e' || c == 'E' {
			next := l.peekAt(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peekAt(2))) {
				isFloat = true
				l.off++
				if c := l.peek(); c == '+' || c == '-' {
					l.off++
				}
				for isDigit(l.peek()) {
					l.off++
				}
			}
		}
	}
	// Suffixes: u, l, ll, f combinations.
	for {
		c := l.peek()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			l.off++
			continue
		}
		if (c == 'f' || c == 'F') && isFloat {
			l.off++
			continue
		}
		break
	}
	if isFloat {
		l.emit(ctoken.KindFloatLit, start)
		return
	}
	l.emit(ctoken.KindIntLit, start)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) scanCharLit() {
	start := l.off
	l.off++ // opening quote
	for l.off < len(l.src) {
		c := l.src[l.off]
		if c == '\\' {
			l.off += 2
			if l.off > len(l.src) {
				l.off = len(l.src)
			}
			continue
		}
		if c == '\'' {
			l.off++
			l.emit(ctoken.KindCharLit, start)
			return
		}
		if c == '\n' {
			break
		}
		l.off++
	}
	l.errorf(start, "unterminated character literal")
	l.emit(ctoken.KindCharLit, start)
}

func (l *Lexer) scanStringLit() {
	start := l.off
	l.off++ // opening quote
	for l.off < len(l.src) {
		c := l.src[l.off]
		if c == '\\' {
			l.off += 2
			if l.off > len(l.src) {
				l.off = len(l.src)
			}
			continue
		}
		if c == '"' {
			l.off++
			l.emit(ctoken.KindStringLit, start)
			return
		}
		if c == '\n' {
			break
		}
		l.off++
	}
	l.errorf(start, "unterminated string literal")
	l.emit(ctoken.KindStringLit, start)
}

func (l *Lexer) scanPunct() {
	if n := ctoken.PunctLen(l.src, l.off); n > 0 {
		start := l.off
		l.off += n
		l.emit(ctoken.KindPunct, start)
		return
	}
	l.errorf(l.off, "unexpected byte %q", l.src[l.off])
	l.off++
}
