package clex

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ctoken"
)

// The punctuator maps the lexer used before it recognised punctuators
// with ctoken.PunctLen's byte switch, kept as the reference for
// TestScanPunctMatchesMaps.
var (
	refPunct3 = map[string]struct{}{
		"<<=": {}, ">>=": {}, "...": {},
	}
	refPunct2 = map[string]struct{}{
		"->": {}, "++": {}, "--": {}, "<<": {}, ">>": {}, "<=": {}, ">=": {},
		"==": {}, "!=": {}, "&&": {}, "||": {}, "+=": {}, "-=": {}, "*=": {},
		"/=": {}, "%=": {}, "&=": {}, "^=": {}, "|=": {},
	}
	refPunct1 = map[byte]struct{}{
		'[': {}, ']': {}, '(': {}, ')': {}, '{': {}, '}': {}, '.': {}, '&': {},
		'*': {}, '+': {}, '-': {}, '~': {}, '!': {}, '/': {}, '%': {}, '<': {},
		'>': {}, '^': {}, '|': {}, '?': {}, ':': {}, ';': {}, '=': {}, ',': {},
	}
)

// refScanPunct is the map-driven scanPunct: at src[off] it yields either
// a punctuator token or an error, and the offset after it.
func refScanPunct(src string, off int) (tok *ctoken.Token, err *Error, next int) {
	punct := func(n int) (*ctoken.Token, *Error, int) {
		return &ctoken.Token{
			Kind:   ctoken.KindPunct,
			Text:   src[off : off+n],
			Extent: ctoken.Extent{Pos: ctoken.Pos(off), End: ctoken.Pos(off + n)},
		}, nil, off + n
	}
	if off+3 <= len(src) {
		if _, ok := refPunct3[src[off:off+3]]; ok {
			return punct(3)
		}
	}
	if off+2 <= len(src) {
		if _, ok := refPunct2[src[off:off+2]]; ok {
			return punct(2)
		}
	}
	if _, ok := refPunct1[src[off]]; ok {
		return punct(1)
	}
	return nil, &Error{Pos: ctoken.Pos(off), Msg: fmt.Sprintf("unexpected byte %q", src[off])}, off + 1
}

// TestScanPunctMatchesMaps runs every string of one to three bytes over
// the punctuator alphabet plus '#' (a preprocessor punctuator only) and
// '@' (no punctuator at all) through scanPunct, punctuator after
// punctuator, and holds each token and error to the reference maps.
func TestScanPunctMatchesMaps(t *testing.T) {
	alphabet := "#@"
	for c := range refPunct1 {
		alphabet += string(c)
	}
	var inputs []string
	for _, a := range alphabet {
		inputs = append(inputs, string(a))
		for _, b := range alphabet {
			inputs = append(inputs, string(a)+string(b))
			for _, c := range alphabet {
				inputs = append(inputs, string(a)+string(b)+string(c))
			}
		}
	}
	for _, in := range inputs {
		l := New(in)
		for l.off < len(in) {
			pos := l.off
			toks, errs := len(l.tokens), len(l.errs)
			l.scanPunct()
			tok, err, next := refScanPunct(in, pos)
			if l.off != next {
				t.Fatalf("%q at %d: scanned to %d, maps give %d", in, pos, l.off, next)
			}
			switch {
			case tok != nil:
				if len(l.tokens) != toks+1 || len(l.errs) != errs || l.tokens[toks] != *tok {
					t.Fatalf("%q at %d: scanned %v (errors %d -> %d), maps give %v",
						in, pos, l.tokens[toks:], errs, len(l.errs), *tok)
				}
			default:
				if len(l.tokens) != toks || len(l.errs) != errs+1 || *l.errs[errs] != *err {
					t.Fatalf("%q at %d: scanned tokens %v errors %v, maps give error %v",
						in, pos, l.tokens[toks:], l.errs[errs:], err)
				}
			}
		}
	}
}

// TestTokenizeAllocations: lexing the 100 KB libtiff unit allocates the
// presized token slice and next to nothing else.
func TestTokenizeAllocations(t *testing.T) {
	p, ok := corpus.ProjectByName("libtiff", 2)
	if !ok {
		t.Fatal("corpus has no libtiff project")
	}
	src := p.ConcatenatedUnit()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Tokenize(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Tokenize allocated %v objects per run, want at most 2", allocs)
	}
}
