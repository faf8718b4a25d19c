package str

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cparse"
	"repro/internal/stralloc"
)

// runAll parses src and applies STR to every candidate.
func runAll(t *testing.T, src string) *FileResult {
	t.Helper()
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := NewTransformer(analysis.New(tu)).ApplyAll()
	if err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	return res
}

// reparse verifies the transformed output (with the stralloc header) still
// parses.
func reparse(t *testing.T, res *FileResult) {
	t.Helper()
	src := res.NewSource
	if res.NeedsStralloc {
		src = stralloc.Header() + "\n" + src
	}
	if _, err := cparse.Parse("out.c", src); err != nil {
		t.Fatalf("transformed output does not parse: %v\n--- output ---\n%s", err, src)
	}
}

func TestDeclarationPattern2(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char* buf;
    buf = "abc";
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.NewSource
	for _, want := range []string{
		"stralloc *buf;",
		"stralloc ssss_buf = {0,0,0};",
		"buf = &ssss_buf;",
		`stralloc_copybuf(buf, "abc", strlen("abc"))`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	reparse(t, res)
}

func TestArrayCarriesCapacity(t *testing.T) {
	// The zlib example (Section III-C): char buf[1024] records a = 1024.
	res := runAll(t, `
void f(void) {
    char buf[1024];
    char *infile;
    infile = buf;
    strcat(infile, ".gz");
}
`)
	if res.AppliedCount() != 2 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.NewSource
	for _, want := range []string{
		"stralloc_ready(buf, 1024);",
		"infile = buf;", // pattern 5: no change
		`stralloc_catbuf(infile, ".gz", strlen(".gz"))`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	reparse(t, res)
}

func TestPaperCWE126Example(t *testing.T) {
	// Section II-B4: buffer over-read fixed by the safe data structure.
	res := runAll(t, `
void f(void) {
    char* data;
    char dest[100];
    memset(dest, 'C', 100);
    data[100] = dest[100];
}
`)
	if res.AppliedCount() != 2 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.NewSource
	for _, want := range []string{
		"stralloc_memset(dest, 'C', 100)",
		"stralloc_dereference_replace_by(data, 100, stralloc_get_dereferenced_char_at(dest, 100))",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	reparse(t, res)
}

func TestTableIIPatterns(t *testing.T) {
	// Each case exercises one Table II row end to end.
	tests := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "3 allocation",
			src:  `void f(void){ char *buf; buf = malloc(1024); }`,
			want: []string{"buf->s = malloc(1024); buf->f = buf->s; buf->a = 1024;"},
		},
		{
			name: "4 null assignment unchanged",
			src:  `void f(void){ char *buf; buf = 0; buf = NULL; }`,
			want: []string{"buf = 0;", "buf = NULL;"},
		},
		{
			name: "5 buffer to buffer unchanged",
			src:  `void f(void){ char *buf1; char *buf2; buf2 = "x"; buf1 = buf2; }`,
			want: []string{"buf1 = buf2;"},
		},
		{
			name: "6 string literal",
			src:  `void f(void){ char *buf; buf = "text"; }`,
			want: []string{`stralloc_copybuf(buf, "text", strlen("text"))`},
		},
		{
			name: "7 cast expression",
			src:  `void f(long exp){ char *buf; buf = (char*)(exp); }`,
			want: []string{"stralloc_copybuf(buf, (char*)(exp), sizeof((char*)(exp)))"},
		},
		{
			name: "8 increment",
			src:  `void f(void){ char *buf; buf = "x"; buf++; }`,
			want: []string{"stralloc_increment_by(buf, 1);"},
		},
		{
			name: "9 decrement compound",
			src:  `void f(void){ char *buf; buf = "xyz"; buf -= 3; }`,
			want: []string{"stralloc_decrement_by(buf, 3);"},
		},
		{
			name: "10 sizeof in binary expression",
			src:  `void f(void){ char *buf; int k; buf = "x"; k = sizeof(buf) < 3; }`,
			want: []string{"buf->a < 3"},
		},
		{
			name: "11 array access read",
			src:  `void f(void){ char *buf; char c; buf = "x"; c = buf[1]; }`,
			want: []string{"c = stralloc_get_dereferenced_char_at(buf, 1);"},
		},
		{
			name: "12 array element write",
			src:  `void f(void){ char *buf; buf = "x"; buf[1] = 'b'; }`,
			want: []string{"stralloc_dereference_replace_by(buf, 1, 'b');"},
		},
		{
			name: "13 element to element",
			src:  `void f(void){ char *buf1; char *buf2; buf1 = "a"; buf2 = "b"; buf1[0] = buf2[0]; }`,
			want: []string{"stralloc_dereference_replace_by(buf1, 0, stralloc_get_dereferenced_char_at(buf2, 0));"},
		},
		{
			name: "14 dereference assignment",
			src:  `void f(void){ char *buf; buf = "xxxxx"; *(buf+4) = 'a'; }`,
			want: []string{"stralloc_dereference_replace_by(buf, 4, 'a');"},
		},
		{
			name: "15 dereference binary rhs",
			src:  `void f(char a, char b){ char *buf; buf = "xx"; *(buf+1) = a + b; }`,
			want: []string{"stralloc_dereference_replace_by(buf, 1, a + b);"},
		},
		{
			name: "16 strlen",
			src:  `void f(void){ char *buf; unsigned long n; buf = "x"; n = strlen(buf); }`,
			want: []string{"n = buf->len;"},
		},
		{
			name: "17 user function read-only arg",
			src: `
int foo(char *s) { return s[0]; }
void f(void){ char *buf; buf = "x"; foo(buf); }`,
			want: []string{"foo(buf->s);"},
		},
		{
			name: "18 conditional",
			src:  `void f(void){ char *buf; buf = "a"; if (buf[0] == 'a') { buf[0] = 'b'; } }`,
			want: []string{"if (stralloc_get_dereferenced_char_at(buf, 0) == 'a')"},
		},
		{
			name: "deref read",
			src:  `void f(void){ char *buf; char c; buf = "x"; c = *buf; }`,
			want: []string{"c = stralloc_get_dereferenced_char_at(buf, 0);"},
		},
		{
			name: "strcpy from literal",
			src:  `void f(void){ char *buf; strcpy(buf, "hello"); }`,
			want: []string{`stralloc_copybuf(buf, "hello", strlen("hello"));`},
		},
		{
			name: "strcpy between targets",
			src:  `void f(void){ char *a; char *b; b = "x"; strcpy(a, b); }`,
			want: []string{"stralloc_copy(a, b);"},
		},
		{
			name: "strcpy from plain char*",
			src:  `void f(char *ext){ char *a; strcpy(a, ext); }`,
			want: []string{"stralloc_copys(a, ext);"},
		},
		{
			name: "strdup allocation tracks capacity",
			src:  `void f(char *src){ char *buf; buf = strdup(src); buf[0] = 'x'; }`,
			want: []string{"buf->s = strdup(src); buf->f = buf->s; buf->a = strlen(src) + 1;"},
		},
		{
			name: "memcpy to target",
			src:  `void f(char *src){ char *buf; memcpy(buf, src, 10); }`,
			want: []string{"stralloc_copybuf(buf, src, 10);"},
		},
		{
			name: "read-only library arg",
			src:  `void f(void){ char *buf; buf = "x"; printf("%s", buf); }`,
			want: []string{`printf("%s", buf->s);`},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := runAll(t, tt.src)
			for _, want := range tt.want {
				if !strings.Contains(res.NewSource, want) {
					t.Fatalf("missing %q in output:\n%s", want, res.NewSource)
				}
			}
			reparse(t, res)
		})
	}
}

func TestPreconditionGlobalRejected(t *testing.T) {
	// Globals are not candidates at all (precondition 2 excludes them
	// before counting).
	res := runAll(t, `
char *global_buf;
void f(void) {
    global_buf = "x";
}
`)
	if len(res.Vars) != 0 {
		t.Fatalf("global must not be a candidate: %+v", res.Vars)
	}
	if res.NewSource != "\nchar *global_buf;\nvoid f(void) {\n    global_buf = \"x\";\n}\n" {
		t.Fatalf("source must be untouched:\n%s", res.NewSource)
	}
}

func TestPreconditionParamNotCandidate(t *testing.T) {
	res := runAll(t, `
void f(char *param) {
    param = "x";
}
`)
	if len(res.Vars) != 0 {
		t.Fatalf("parameters must not be candidates: %+v", res.Vars)
	}
}

func TestPreconditionUnsupportedLibrary(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char buf[64];
    gets(buf);
}
`)
	if len(res.Vars) != 1 {
		t.Fatalf("candidates: got %d", len(res.Vars))
	}
	if res.Vars[0].Applied {
		t.Fatal("variable used in gets must be refused")
	}
	if res.Vars[0].Reason != FailUnsupportedLib {
		t.Fatalf("reason: got %v", res.Vars[0].Reason)
	}
}

func TestPreconditionUserFnMayModify(t *testing.T) {
	res := runAll(t, `
void fill(char *out) { out[0] = 'x'; }
void f(void) {
    char *buf;
    buf = malloc(10);
    fill(buf);
}
`)
	if len(res.Vars) != 1 {
		t.Fatalf("candidates: got %d (%+v)", len(res.Vars), res.Vars)
	}
	if res.Vars[0].Applied {
		t.Fatal("buffer passed to modifying function must be refused")
	}
	if res.Vars[0].Reason != FailUserFnMayModify {
		t.Fatalf("reason: got %v (%s)", res.Vars[0].Reason, res.Vars[0].Detail)
	}
	if len(res.Log) == 0 {
		t.Fatal("a detailed log message must explain the refusal (Section IV-B)")
	}
}

func TestUserFnReadOnlyTransitively(t *testing.T) {
	// reader() passes its parameter to strlen only: no modification, so
	// the caller's buffer stays eligible.
	res := runAll(t, `
unsigned long reader(char *s) { return strlen(s); }
void f(void) {
    char *buf;
    buf = "abc";
    reader(buf);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Vars)
	}
	if !strings.Contains(res.NewSource, "reader(buf->s);") {
		t.Fatalf("output:\n%s", res.NewSource)
	}
	reparse(t, res)
}

func TestUserFnModifiesTransitively(t *testing.T) {
	// outer() forwards to writer() which writes: the modification must be
	// found through the call-graph fixpoint.
	res := runAll(t, `
void writer(char *s) { s[0] = 'w'; }
void outer(char *s) { writer(s); }
void f(void) {
    char *buf;
    buf = malloc(4);
    outer(buf);
}
`)
	if res.Vars[0].Applied {
		t.Fatal("transitive modification must be detected")
	}
	if res.Vars[0].Reason != FailUserFnMayModify {
		t.Fatalf("reason: got %v", res.Vars[0].Reason)
	}
}

func TestAddressTakenRejected(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *buf;
    char **pp;
    buf = "x";
    pp = &buf;
}
`)
	for _, v := range res.Vars {
		if v.Name == "buf" && v.Applied {
			t.Fatal("address-taken buffer must be refused")
		}
	}
}

func TestMixedEligibility(t *testing.T) {
	// One variable passes, one fails; the failing one's uses stay intact.
	res := runAll(t, `
void f(void) {
    char *good;
    char bad[32];
    good = "x";
    gets(bad);
    good[0] = 'y';
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.NewSource
	if !strings.Contains(out, "gets(bad);") {
		t.Fatalf("failed variable's use must stay:\n%s", out)
	}
	if !strings.Contains(out, "stralloc_dereference_replace_by(good, 0, 'y');") {
		t.Fatalf("eligible variable must be rewritten:\n%s", out)
	}
	if !strings.Contains(out, "char bad[32];") {
		t.Fatalf("failed variable's declaration must stay:\n%s", out)
	}
	reparse(t, res)
}

func TestMultiDeclaratorStatement(t *testing.T) {
	// The paper's CWE-126 example declares two strallocs in one
	// statement.
	res := runAll(t, `
void f(void) {
    char *data, *dest;
    data = "a";
    dest = "b";
}
`)
	if res.AppliedCount() != 2 {
		t.Fatalf("applied: got %d", res.AppliedCount())
	}
	out := res.NewSource
	if !strings.Contains(out, "stralloc *data, *dest;") {
		t.Fatalf("combined declaration expected:\n%s", out)
	}
	if !strings.Contains(out, "ssss_data = {0,0,0}, ssss_dest = {0,0,0};") {
		t.Fatalf("combined backing declaration expected:\n%s", out)
	}
	reparse(t, res)
}

func TestDeclWithInitMalloc(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *buf = malloc(256);
    buf[0] = 'x';
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.NewSource
	if !strings.Contains(out, "buf->s = malloc(256); buf->f = buf->s; buf->a = 256;") {
		t.Fatalf("allocation init missing:\n%s", out)
	}
	reparse(t, res)
}

func TestTableIIDataComplete(t *testing.T) {
	if len(TableII) != 18 {
		t.Fatalf("Table II rows: got %d, want 18", len(TableII))
	}
	seen := make(map[int]bool)
	for _, p := range TableII {
		if seen[p.ID] {
			t.Errorf("duplicate pattern ID %d", p.ID)
		}
		seen[p.ID] = true
		if p.Before == "" || p.After == "" || p.Group == "" {
			t.Errorf("incomplete pattern %d", p.ID)
		}
	}
}

func TestFailReasonStrings(t *testing.T) {
	for _, r := range []FailReason{FailNone, FailNotLocal, FailUnsupportedLib, FailUserFnMayModify, FailUnsupportedUse} {
		if r.String() == "" {
			t.Errorf("reason %d has no description", r)
		}
	}
}
