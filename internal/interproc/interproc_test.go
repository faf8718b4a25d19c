package interproc

import (
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
)

func analyze(t *testing.T, src string) *Result {
	t.Helper()
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(tu, summaries(tu))
}

// summaries walks every body of tu into its summary.
func summaries(tu *cast.TranslationUnit) []Summary {
	sums := make([]Summary, len(tu.Funcs))
	var z Summarizer
	for i, f := range tu.Funcs {
		z.Reset(f)
		cast.Inspect(f.Body, func(n cast.Node) bool {
			z.Visit(n)
			return true
		})
		sums[i] = z.Summary()
	}
	return sums
}

func TestDirectWriteDetected(t *testing.T) {
	r := analyze(t, `
void fill(char *out) { out[0] = 'x'; }
void deref(char *out) { *out = 'x'; }
void arrow(struct s { char c; } *p) { }
`)
	if !r.MayModifyParam("fill", 0) {
		t.Fatal("index write through parameter must be detected")
	}
	if !r.MayModifyParam("deref", 0) {
		t.Fatal("deref write through parameter must be detected")
	}
}

func TestReadOnlyParam(t *testing.T) {
	r := analyze(t, `
int measure(char *s) {
    int n = 0;
    while (s[n] != '\0') { n++; }
    return n;
}
`)
	if r.MayModifyParam("measure", 0) {
		t.Fatal("read-only traversal must not count as modification")
	}
}

func TestLibraryWriterPropagates(t *testing.T) {
	r := analyze(t, `
void wrap(char *dst, char *src) { strcpy(dst, src); }
`)
	if !r.MayModifyParam("wrap", 0) {
		t.Fatal("strcpy writes its first argument; wrap modifies param 0")
	}
	if r.MayModifyParam("wrap", 1) {
		t.Fatal("strcpy's source is read-only; wrap must not modify param 1")
	}
}

func TestTransitivePropagation(t *testing.T) {
	r := analyze(t, `
void level0(char *p) { p[0] = 'x'; }
void level1(char *p) { level0(p); }
void level2(char *p) { level1(p); }
void clean(char *p) { strlen(p); }
`)
	for _, fn := range []string{"level0", "level1", "level2"} {
		if !r.MayModifyParam(fn, 0) {
			t.Errorf("%s must be flagged via the call-graph fixpoint", fn)
		}
	}
	if r.MayModifyParam("clean", 0) {
		t.Error("clean only reads")
	}
}

func TestMutualRecursionConverges(t *testing.T) {
	r := analyze(t, `
void pong(char *p);
void ping(char *p) { pong(p); }
void pong(char *p) { ping(p); }
`)
	// Neither function writes: the fixpoint must converge to false.
	if r.MayModifyParam("ping", 0) || r.MayModifyParam("pong", 0) {
		t.Fatal("pure mutual recursion must not be flagged")
	}
}

func TestUnknownExternalConservative(t *testing.T) {
	r := analyze(t, `
void f(char *p) { mystery_function(p); }
`)
	if !r.MayModifyParam("f", 0) {
		t.Fatal("unknown external callees are conservatively modifying")
	}
}

func TestUnknownFunctionItselfConservative(t *testing.T) {
	r := analyze(t, "int x;")
	if !r.MayModifyParam("not_defined_anywhere", 0) {
		t.Fatal("undefined functions must be conservatively modifying")
	}
}

func TestKnownReadOnlyLibrary(t *testing.T) {
	r := analyze(t, "int x;")
	if r.MayModifyParam("strlen", 0) {
		t.Fatal("strlen is modeled read-only")
	}
	if !r.MayModifyParam("strcpy", 0) {
		t.Fatal("strcpy writes arg 0")
	}
	if r.MayModifyParam("strcpy", 1) {
		t.Fatal("strcpy reads arg 1")
	}
}

func TestPointerArithmeticArgument(t *testing.T) {
	r := analyze(t, `
void shift(char *p) { strcpy(p + 4, "x"); }
`)
	if !r.MayModifyParam("shift", 0) {
		t.Fatal("writes through p+4 are writes through p")
	}
}

func TestEscapeToGlobalConservative(t *testing.T) {
	r := analyze(t, `
char *stash;
void keep(char *p) { stash = p; }
`)
	if !r.MayModifyParam("keep", 0) {
		t.Fatal("a parameter escaping to a global is conservatively modified")
	}
}

func TestElementReadDoesNotEscape(t *testing.T) {
	r := analyze(t, `
char g;
char *gp;
struct holder { char *f; };
void copy(char *p, char *q) { p[1] = q[0]; }
void load(char *q) { g = q[0]; }
void load_cast(char *q) { g = (char)q[1] + 1; }
void row(char q[][4]) { gp = q[1]; }
void addr(char *q) { gp = &q[1]; }
void offset(char *q) { gp = (char *)q + 2; }
void member(struct holder *h, char *q) { h->f = q - 1; }
`)
	cases := []struct {
		fn   string
		idx  int
		want bool
	}{
		{"copy", 0, true},
		{"copy", 1, false},
		{"load", 0, false},
		{"load_cast", 0, false},
		{"row", 0, true},
		{"addr", 0, true},
		{"offset", 0, true},
		{"member", 1, true},
	}
	for _, c := range cases {
		if got := r.MayModifyParam(c.fn, c.idx); got != c.want {
			t.Errorf("%s param %d: may-modify %v, want %v", c.fn, c.idx, got, c.want)
		}
	}
}

func TestMayModifyArgFunctionPointer(t *testing.T) {
	tu, err := cparse.Parse("t.c", `
void f(void (*cb)(char*), char *buf) { cb(buf); }
`)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(tu, summaries(tu))
	if !r.MayModifyParam("f", 1) {
		t.Fatal("calls through function pointers are conservative")
	}
}

func TestLibraryTables(t *testing.T) {
	r := Analyze(&cast.TranslationUnit{}, nil)
	if !r.MayModifyParam("memcpy", 0) || r.MayModifyParam("memcpy", 1) {
		t.Fatal("memcpy writes arg 0 only")
	}
	if r.MayModifyParam("printf", 0) || r.MayModifyParam("strlcpy", 1) || !r.MayModifyParam("strcpy_s", 0) {
		t.Fatal("library classification incomplete")
	}
	if !r.MayModifyParam("no_such_fn", 0) {
		t.Fatal("unknown function misclassified")
	}
}
