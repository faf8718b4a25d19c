package cpp

import (
	"strings"
	"testing"
)

// The longest-match tables the scanner used before it recognised
// punctuators with a byte switch, kept as the reference for
// TestScanPunctMatchesTables.
var (
	refPunct3 = []string{"<<=", ">>=", "..."}
	refPunct2 = []string{
		"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
		"+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "##",
	}
	refPunct1 = "[](){}.&*+-~!/%<>^|?:;=,#"
)

// refScanPunct is the table-driven scanPunct: the kind, text and length
// of the token at the start of rest.
func refScanPunct(rest string) (pkind, string, int) {
	for _, p := range refPunct3 {
		if strings.HasPrefix(rest, p) {
			return tkPunct, p, 3
		}
	}
	for _, p := range refPunct2 {
		if strings.HasPrefix(rest, p) {
			return tkPunct, p, 2
		}
	}
	if strings.IndexByte(refPunct1, rest[0]) >= 0 {
		return tkPunct, rest[:1], 1
	}
	return tkOther, rest[:1], 1
}

// TestScanPunctMatchesTables runs every string of one to three bytes
// over the punctuator alphabet plus one byte that starts no punctuator
// through scanPunct, token after token, and holds each token to the
// reference tables.
func TestScanPunctMatchesTables(t *testing.T) {
	alphabet := refPunct1 + "@"
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
		s := newScanner(&srcFile{name: "p.c", src: in}, 0)
		for pos := 0; pos < len(in); {
			tok := s.scanPunct(pos, false)
			kind, text, n := refScanPunct(in[pos:])
			if tok.kind != kind || tok.text != text || tok.end != pos+n || s.off != pos+n {
				t.Fatalf("%q at %d: scanned kind %d %q end %d (offset %d), tables give kind %d %q end %d",
					in, pos, tok.kind, tok.text, tok.end, s.off, kind, text, pos+n)
			}
			pos = s.off
		}
	}
}

// TestScanSplicedTokens: a splice inside an identifier or pp-number
// joins its halves, and one right after the token is consumed with it.
func TestScanSplicedTokens(t *testing.T) {
	for _, c := range []struct {
		src, text string
		kind      pkind
		end       int
		spliced   bool
	}{
		{"abc+", "abc", tkIdent, 3, false},
		{"ab\\\ncd+", "abcd", tkIdent, 6, true},
		{"ab\\\r\ncd", "abcd", tkIdent, 7, true},
		{"a\\\n+", "a", tkIdent, 3, true},
		{"1e\\\n+5;", "1e+5", tkNum, 6, true},
		{"0x1fUL)", "0x1fUL", tkNum, 6, false},
	} {
		tok := newScanner(&srcFile{name: "s.c", src: c.src}, 0).next()
		if tok.kind != c.kind || tok.text != c.text || tok.end != c.end || tok.spliced != c.spliced {
			t.Errorf("%q: got kind %d %q end %d spliced %t, want kind %d %q end %d spliced %t",
				c.src, tok.kind, tok.text, tok.end, tok.spliced, c.kind, c.text, c.end, c.spliced)
		}
	}
}

// TestScanAllocationFree: unspliced identifiers, pp-numbers and
// punctuators are substrings of the source, so scanning them allocates
// nothing.
func TestScanAllocationFree(t *testing.T) {
	f := &srcFile{name: "s.c", src: "buf[0x10] = len <<= 2 ... a->b;\n"}
	allocs := testing.AllocsPerRun(100, func() {
		s := newScanner(f, 0)
		for s.next().kind != tkEOF {
		}
	})
	if allocs != 0 {
		t.Fatalf("scanning allocated %v times per run, want 0", allocs)
	}
}

// TestMacroKeepsNonASCIIBytes: a byte that starts no token is copied as
// itself into a macro's expansion, not re-encoded as a UTF-8 rune.
func TestMacroKeepsNonASCIIBytes(t *testing.T) {
	res, err := Preprocess("m.c", "#define X a\xc3\xa9b\nint X;\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != "int a\xc3\xa9b;\n" {
		t.Fatalf("expansion = %q", res.Text)
	}
}
