package cparse_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cast"
	"repro/internal/corpus"
	"repro/internal/cparse"
)

// reparse re-parses prev's function fi on text through the session's
// function path and appends the new unit's AST dump to b. It returns the
// parse error, or cparse.ErrDeclined, instead when there is one. It puts
// prev's nodes back before returning.
func reparse(b []byte, prev *analysis.Snapshot, fi int, text string) ([]byte, error) {
	snap, restore, err := analysis.ParseFuncCtx(context.Background(), prev, fi, text, analysis.Config{})
	if err != nil {
		return b, err
	}
	defer restore()
	return appendAST(b, snap.Unit()), nil
}

// whole parses text from scratch and appends its AST dump to b, or
// returns the parse error.
func whole(b []byte, name, text string) ([]byte, error) {
	tu, err := cparse.Parse(name, text)
	if err != nil {
		return b, err
	}
	return appendAST(b, tu), nil
}

// firstDiff describes where two dumps first differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  function path: %s\n  whole parse:   %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, whole parse has %d", len(g), len(w))
}

// digitEdit returns text with a '1' put in front of the first decimal
// integer literal of fn's body, or "" when the body has none.
func digitEdit(text string, fn *cast.FuncDef) string {
	at := -1
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		if lit, ok := n.(*cast.IntLit); ok && (lit.Text == "0" || lit.Text[0] != '0') {
			at = int(lit.Extent().Pos)
		}
		return at < 0
	})
	if at < 0 {
		return ""
	}
	return text[:at] + "1" + text[at:]
}

// TestReparseFunctionSplit is the split property of the function path:
// for every function of the SAMATE corpus, the integer-overflow corpus,
// the libtiff fixture and the session unit, re-parsing the function
// against the retained unit gives the AST dump of a whole parse of the
// same text, both unedited and after a digit is added in its body. After
// every function's re-parses the retained unit dumps as it did before.
func TestReparseFunctionSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("re-parses every function of every corpus")
	}
	corpora := astCorpora()
	names := make([]string, 0, len(corpora))
	for name := range corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	funcs := 0
	var got, want, wantEdited []byte
	for _, corp := range names {
		for _, u := range corpora[corp] {
			prev, err := analysis.Parse(u.name, u.source)
			if err != nil {
				t.Fatalf("%s: %v", u.name, err)
			}
			want = appendAST(want[:0], prev.Unit())
			for fi, fn := range prev.Unit().Funcs {
				funcs++
				got, err = reparse(got[:0], prev, fi, u.source)
				if err != nil {
					t.Fatalf("%s: %s unedited: %v", u.name, fn.Name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %s unedited: %s", u.name, fn.Name, firstDiff(got, want))
				}
				edited := digitEdit(u.source, fn)
				if edited == "" {
					continue
				}
				got, err = reparse(got[:0], prev, fi, edited)
				if err != nil {
					t.Fatalf("%s: %s edited: %v", u.name, fn.Name, err)
				}
				wantEdited, err = whole(wantEdited[:0], u.name, edited)
				if err != nil {
					t.Fatalf("%s: %s edited: whole parse: %v", u.name, fn.Name, err)
				}
				if !bytes.Equal(got, wantEdited) {
					t.Fatalf("%s: %s edited: %s", u.name, fn.Name, firstDiff(got, wantEdited))
				}
			}
			if got = appendAST(got[:0], prev.Unit()); !bytes.Equal(got, want) {
				t.Fatalf("%s: retained unit after restore: %s", u.name, firstDiff(got, want))
			}
		}
	}
	t.Logf("%d functions re-parsed", funcs)
}

// reparseSeeds are FuzzReparseFunction's units: small ones that reach
// every statement form, scopes, tags and a record completed after a
// function that uses it, and the libtiff CVE miniature.
var reparseSeeds = []string{
	`typedef struct rec { char tag[16]; int n; } rec_t;
enum color { RED, GREEN = 4 };
static char table[32];
int helper(int a, char *p) {
    int i;
    for (i = 0; i < a; i++) { p[i] = 'x'; }
    return i;
}
void user(rec_t *r, int n) {
    char buf[8];
    struct rec local;
    typedef int len_t;
    len_t k = sizeof(buf) + GREEN;
    switch (n) { case 1: strcpy(buf, "toolong!!"); break; default: k = n; }
    if (n > 2) { memset(table, 0, k); } else while (k--) { helper(k, buf); }
    do { local.n = k; } while (0);
lbl:
    goto lbl;
}
struct rec later;
int tail(void) { return RED; }
`,
	`void first(void) {
    char a[8];
    strcpy(a, "0123456789");
}

void second(void) {
    char b[8];
    strcpy(b, "abcdefghij");
}
`,
	`struct fwd;
typedef struct fwd fwd_t;
struct done { int a; };
int use(fwd_t *p, struct done *d) {
    struct fwd *q = p;
    int n = d->a;
    return n + (q != 0);
}
struct fwd { char c[4]; };
int after(struct fwd *p) { return sizeof(*p) + sizeof(struct fwd); }
`,
	corpus.LibtiffCVESource,
}

// FuzzReparseFunction mutates bytes inside one function body of a seed
// unit. The function path must either decline, or give the AST dump a
// whole parse of the mutated text gives, or the same error; and the
// retained unit must dump as before once its nodes are put back.
func FuzzReparseFunction(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0), uint8(0), "int extra; ")
	f.Add(uint8(0), uint8(1), uint16(40), uint8(0), "int extra; ")
	f.Add(uint8(0), uint8(1), uint16(60), uint8(3), "}")
	f.Add(uint8(1), uint8(0), uint16(4), uint8(1), "/*")
	f.Add(uint8(1), uint8(1), uint16(10), uint8(0), `"`)
	f.Add(uint8(2), uint8(0), uint16(100), uint8(5), "(char)")
	f.Add(uint8(0), uint8(1), uint16(30), uint8(0), "struct rec { int z; } q; ")
	f.Fuzz(func(t *testing.T, seed, fnIdx uint8, off uint16, del uint8, ins string) {
		if len(ins) > 64 {
			t.Skip()
		}
		src := reparseSeeds[int(seed)%len(reparseSeeds)]
		prev, err := analysis.Parse("fuzz.c", src)
		if err != nil {
			t.Fatalf("seed does not parse: %v", err)
		}
		before := appendAST(nil, prev.Unit())
		fi := int(fnIdx) % len(prev.Unit().Funcs)
		body := prev.Unit().Funcs[fi].Body
		inner := int(body.RBrace.Pos - body.LBrace.End)
		at := int(body.LBrace.End) + int(off)%(inner+1)
		end := at + min(int(del), int(body.RBrace.Pos)-at)
		text := src[:at] + ins + src[end:]

		got, gotErr := reparse(nil, prev, fi, text)
		if after := appendAST(nil, prev.Unit()); !bytes.Equal(after, before) {
			t.Fatalf("retained unit after restore: %s", firstDiff(after, before))
		}
		if errors.Is(gotErr, cparse.ErrDeclined) {
			return
		}
		want, wantErr := whole(nil, "fuzz.c", text)
		switch {
		case gotErr != nil || wantErr != nil:
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, whole parse %v\ntext:\n%s", gotErr, wantErr, text)
			}
		case !bytes.Equal(got, want):
			t.Fatalf("%s\ntext:\n%s", firstDiff(got, want), text)
		}
	})
}

// TestFuncParseDeclines pins the function path's refusals, edits whose
// whole-parse result the body alone cannot decide, beside edits close
// to them that it does decide.
func TestFuncParseDeclines(t *testing.T) {
	const src = `struct fwd;
struct done { int a; };
void f(int n) {
    int x = n;
}
struct fwd { char c[4]; };
`
	// A body that completes a record forward-declared at file scope
	// changes the record for every function before it.
	const completedInBody = "struct open;\n" + src + "void g(void) { struct open { int z; } o; }\n"
	for _, c := range []struct {
		name, src, ins string
		decline        bool
	}{
		{"unbalanced close brace", src, "} ", true},
		{"unterminated comment", src, "/* ", true},
		{"unterminated string", src, `char *s = "abc;`, true},
		{"open brace runs past the body", src, "{ ", true},
		{"cast lookahead runs past the body", src, "n = (int ( ; ", true},
		{"record defined under a file-scope tag", src, "struct done { int b; } d; ", true},
		{"size of a record defined after the function", src, "int k = sizeof(struct fwd); ", true},
		{"record completed in a later body", completedInBody, "x = n + 1; ", true},
		{"plain statement", src, "x = n + 1; ", false},
		{"pointer to a record defined after the function", src, "struct fwd *p = 0; ", false},
		{"record defined under a new tag", src, "struct fresh { int b; } d; ", false},
		{"parse error", src, "x = ; ", false},
	} {
		prev, err := analysis.Parse("d.c", c.src)
		if err != nil {
			t.Fatal(err)
		}
		body := strings.Index(c.src, "    int x")
		text := c.src[:body] + c.ins + c.src[body:]
		_, err = reparse(nil, prev, 0, text)
		if declined := errors.Is(err, cparse.ErrDeclined); declined != c.decline {
			t.Errorf("%s: function path gave %v, want declined=%t", c.name, err, c.decline)
		}
	}
}
