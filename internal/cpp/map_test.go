package cpp

import (
	"strings"
	"testing"

	"repro/internal/clex"
	"repro/internal/ctoken"
)

// checkMapProperty tokenizes preprocessed output and asserts the
// source-map contract for every token extent:
//
//   - an exact mapping points at the same bytes in the original file;
//   - an inexact mapping is flagged (exact == false) and, when it names
//     a macro, the invocation extent it reports spells a use of that
//     macro in the original file.
//
// It returns the number of exact and inexact extents checked.
func checkMapProperty(t *testing.T, res *Result) (exact, inexact int) {
	t.Helper()
	toks, err := clex.Tokenize(res.Text)
	if err != nil {
		// Preprocessing hostile input can legally yield text the strict
		// lexer rejects (e.g. unterminated literals that were already in
		// the input); the map property is only claimed for lexable output.
		t.Skipf("output not lexable: %v", err)
	}
	for _, tok := range toks {
		if tok.Kind == ctoken.KindEOF || !tok.Extent.IsValid() || tok.Extent.Len() == 0 {
			continue
		}
		org, ok := res.Map.ToOriginal(tok.Extent)
		if !ok {
			inexact++
			continue
		}
		exact++
		content, have := res.Map.files[org.File]
		if !have {
			t.Fatalf("exact mapping into unknown file %q for token %q", org.File, tok.Text)
		}
		if org.Extent.Pos < 0 || int(org.Extent.End) > len(content) {
			t.Fatalf("exact mapping out of range: %+v in %q (len %d)", org.Extent, org.File, len(content))
		}
		got := content[org.Extent.Pos:org.Extent.End]
		want := res.Text[tok.Extent.Pos:tok.Extent.End]
		if got != want {
			t.Fatalf("exact mapping lies: token %q at %v maps to %q at %v in %s",
				want, tok.Extent, got, org.Extent, org.File)
		}
	}
	return exact, inexact
}

// TestMapProperty runs the byte-exactness property over representative
// programs mixing verbatim text, macros, includes, and continuations.
func TestMapProperty(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		headers map[string]string
	}{
		{
			name: "plain",
			src:  "int main(void) {\n  char buf[10];\n  return 0;\n}\n",
		},
		{
			name: "macros",
			src:  "#define N 10\n#define SQ(x) ((x)*(x))\nchar buf[N];\nint y = SQ(N + 1);\n",
		},
		{
			name: "include",
			src:  "#include \"h.h\"\nint main(void) { return f(M); }\n",
			headers: map[string]string{
				"h.h": "#define M 3\nint f(int);\n",
			},
		},
		{
			name: "continuations",
			src:  "int fo\\\no = 1;\nchar s[] = \"a\\\nb\";\n",
		},
		{
			name: "conditionals",
			src:  "#if 1\nint a;\n#else\nint b;\n#endif\nint c;\n",
		},
		{
			name: "passthrough include",
			src:  "#include <string.h>\nint main(void) { return 0; }\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := run(t, tc.src, tc.headers, Options{})
			exact, inexact := checkMapProperty(t, res)
			if exact == 0 {
				t.Fatalf("no exact extents checked (inexact=%d); property vacuous", inexact)
			}
		})
	}
}

// TestMacroExtentFlagged pins the unrepairable-in-place contract: a
// token born from a macro expansion maps inexactly, to the invocation
// extent, with the macro named.
func TestMacroExtentFlagged(t *testing.T) {
	src := "#define LEN 16\nchar buf[LEN];\n"
	res := run(t, src, nil, Options{})
	if res.Text != "char buf[16];\n" {
		t.Fatalf("output %q", res.Text)
	}
	at := strings.Index(res.Text, "16")
	org, exact := res.Map.ToOriginal(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 2)})
	if exact {
		t.Fatal("macro-expanded extent reported exact")
	}
	if org.Macro != "LEN" {
		t.Fatalf("macro = %q, want LEN", org.Macro)
	}
	if org.File != "main.c" {
		t.Fatalf("file = %q", org.File)
	}
	inv := src[org.Extent.Pos:org.Extent.End]
	if inv != "LEN" {
		t.Fatalf("invocation extent spells %q, want LEN", inv)
	}
}

// TestHeaderExtentExactButElsewhere: tokens from an included header map
// exactly — into the header file, not the main file. Callers that only
// edit the main file must check Origin.File.
func TestHeaderExtentExactButElsewhere(t *testing.T) {
	res := run(t, "#include \"d.h\"\nint x;\n", map[string]string{"d.h": "int fromheader;\n"}, Options{})
	at := strings.Index(res.Text, "fromheader")
	org, exact := res.Map.ToOriginal(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + len("fromheader"))})
	if !exact {
		t.Fatal("header token should map exactly")
	}
	if org.File != "d.h" {
		t.Fatalf("file = %q, want d.h", org.File)
	}
}

// TestSpanningExtentInexact: an extent spanning a macro boundary is not
// contiguous in the original and must be flagged.
func TestSpanningExtentInexact(t *testing.T) {
	src := "#define N 10\nchar buf[N];\n"
	res := run(t, src, nil, Options{})
	// Extent covering "buf[10" crosses Direct -> Macro.
	at := strings.Index(res.Text, "buf")
	_, exact := res.Map.ToOriginal(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 6)})
	if exact {
		t.Fatal("extent spanning a macro expansion reported exact")
	}
}

// TestPosition smoke-tests human-readable positions through the map.
func TestPosition(t *testing.T) {
	res := run(t, "#define N 1\nint a;\nint b = N;\n", nil, Options{})
	at := strings.Index(res.Text, "b")
	p := res.Map.Position(ctoken.Pos(at))
	if p.File != "main.c" || p.Line != 3 {
		t.Fatalf("Position = %+v, want main.c:3", p)
	}
}

// FuzzRoundTrip feeds arbitrary source through cpp and re-checks the
// map property plus structural invariants on the segments.
func FuzzRoundTrip(f *testing.F) {
	seeds := []string{
		"int main(void) { return 0; }\n",
		"#define N 10\nchar buf[N];\n",
		"#define SQ(x) ((x)*(x))\nint y = SQ(3);\n",
		"#define STR(x) #x\nconst char *s = STR(a b);\n",
		"#define GLUE(a,b) a##b\nint GLUE(x,y);\n",
		"#if 0\njunk\n#else\nint ok;\n#endif\n",
		"#include \"missing.h\"\nint z;\n",
		"int a \\\n= 1;\n",
		"#define A B\n#define B A\nint A;\n",
		"#define F(x) F(x)\nint q = F(2);\n",
		"#define E\nE E E int r; E\n",
		"#ifdef X\n#elif Y\n#else\n#endif\n",
		"#define V(...) f(__VA_ARGS__)\nV(1,2,3);\n",
		"'unterminated\n\"also\n#define\n#\n##\n",
		"int a\\\nb = 1;\n",
		"int y = p-\\\n>x;\n",
		"#define G(a, b) a #\\\n# b\nint G(x, y);\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		res, err := Preprocess("fuzz.c", src, Options{MaxExpansions: 2000, MaxDepth: 8})
		if err != nil {
			t.Fatalf("non-strict Preprocess returned error: %v", err)
		}
		segs := res.Map.segs
		prev := 0
		for _, s := range segs {
			if s.OutPos != prev || s.OutEnd < s.OutPos {
				t.Fatalf("segments not contiguous: %+v (prev end %d)", s, prev)
			}
			if s.Kind == SegDirect && s.OrigEnd-s.OrigPos != s.OutEnd-s.OutPos {
				t.Fatalf("direct segment length mismatch: %+v", s)
			}
			if s.Kind == SegDirect {
				content, ok := res.Map.files[s.File]
				if !ok || s.OrigPos < 0 || s.OrigEnd > len(content) {
					t.Fatalf("direct segment out of range: %+v", s)
				}
				if content[s.OrigPos:s.OrigEnd] != res.Text[s.OutPos:s.OutEnd] {
					t.Fatalf("direct segment bytes differ: %+v", s)
				}
			}
			prev = s.OutEnd
		}
		if prev != len(res.Text) {
			t.Fatalf("segments cover %d bytes of %d", prev, len(res.Text))
		}
		checkMapProperty(t, res)
	})
}
