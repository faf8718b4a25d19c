package analysis

import (
	"context"
	"maps"
	"strings"
	"testing"

	"repro/internal/clex"
	"repro/internal/corpus"
	"repro/internal/ctoken"
	"repro/internal/samate"
)

// refIdentSet and refNormalize are the hash inputs as computed before
// FuncHashes lexed each unit once: every function and declaration
// re-lexed from its own text, once to mask comments and once for its
// identifiers. They are the reference for TestFuncHashesMatchPerSliceLex.
func refIdentSet(src string) map[string]bool {
	toks, err := clex.Tokenize(src)
	if err != nil {
		return nil
	}
	out := make(map[string]bool)
	for _, t := range toks {
		if t.Kind == ctoken.KindIdent {
			out[t.Text] = true
		}
	}
	return out
}

func refNormalize(src string) string {
	return clex.CollapseSpace(clex.MaskComments(src))
}

// hashEdgeCases mixes comments into every position the normalization
// touches: inside and between functions and declarations, next to
// non-ASCII spaces and bytes that are not UTF-8, in string literals.
const hashEdgeCases = "/* lead */ typedef struct { int n; /* in */ char *s; } rec_t; // tail\n" +
	"static int g/*x*/= 3;\n" +
	"int helper(rec_t *r) { return r->n/**/+g; } // after\n" +
	"void f(void) {\n\tchar b[8]; /* \xc2\xa0 */\n" +
	"\tstrcpy(b, \"a\xc2\xa0\xc2\x85 b\\t\xff\xfe\");\t// \xe2\x80\x83 em space\n" +
	"\t/* multi\n line */ helper(0);\n}\n"

// TestFuncHashesMatchPerSliceLex: the single-lex dependency hashes equal
// the per-slice hashes on every SAMATE program, every int-corpus program
// and the 100 KB libtiff unit, so memo keys survive the change byte for
// byte.
func TestFuncHashesMatchPerSliceLex(t *testing.T) {
	srcs := map[string]string{"edge.c": hashEdgeCases}
	for _, cwe := range samate.CWEs {
		for _, p := range samate.Generate(cwe, samate.TableIIICounts[cwe]) {
			srcs[p.ID+".c"] = p.Source
		}
	}
	for _, progs := range samate.IntGenerateAll() {
		for _, p := range progs {
			srcs[p.ID+".c"] = p.Source
		}
	}
	p, ok := corpus.ProjectByName("libtiff", 2)
	if !ok {
		t.Fatal("corpus has no libtiff project")
	}
	srcs["tif_all.c"] = p.ConcatenatedUnit()
	if n := len(srcs); n != 1+4505+72+1 {
		t.Fatalf("hashed %d units, want 4579", n)
	}

	for name, src := range srcs {
		s, err := Parse(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := s.FuncHashes()
		if len(got) == 0 {
			t.Fatalf("%s: no function hashes", name)
		}
		want := s.hashFuncs(func(e ctoken.Extent) (string, map[string]bool) {
			raw := s.unit.File.Slice(e)
			return refNormalize(raw), refIdentSet(raw)
		})
		if !maps.Equal(got, want) {
			t.Fatalf("%s: single-lex hashes differ from per-slice hashes:\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestInBodyEditIsPerFunction pins the work of FuncHashes through a
// HashMemo across edits: an in-body edit normalizes the edited function
// alone, an edit between functions none, and a file-scope edit falls
// back to the whole unit. Every hash equals a fresh computation.
func TestInBodyEditIsPerFunction(t *testing.T) {
	const src = `struct pkt { char body[8]; };
static int limit = 4;

void reader(struct pkt *p) {
    strcpy(p->body, "0123456789");
}

int leaf(int n) {
    return n + 1;
}

void loner(void) {
    char c[4];
    strcpy(c, "xxxxxxxx");
}
`
	m := NewHashMemo()
	steps := []struct {
		name, from, to string
		normalized     int
	}{
		{"open", "", "", 3},
		{"in-body", "n + 1", "n + 2", 1},
		{"between functions", "\nint leaf", "\n/* c */\nint leaf", 0},
		{"whitespace inside a function", "return n", "return   n", 1},
		{"file scope", "limit = 4", "limit = 5", 3},
	}
	text := src
	for _, st := range steps {
		text = strings.Replace(text, st.from, st.to, 1)
		s, err := ParseCtx(context.Background(), "h.c", text, Config{Hashes: m})
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got := s.FuncHashes()
		fresh, err := Parse("h.c", text)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !maps.Equal(got, fresh.FuncHashes()) {
			t.Fatalf("%s: memoized hashes differ from fresh ones", st.name)
		}
		if m.normalized != st.normalized {
			t.Fatalf("%s: normalized %d functions, want %d", st.name, m.normalized, st.normalized)
		}
	}
}
