package slr

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/buflen"
	"repro/internal/cparse"
)

// runAllBackend parses src and applies SLR under the named dialect.
func runAllBackend(t *testing.T, name, src string) *FileResult {
	t.Helper()
	be, err := backend.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := NewTransformer(analysis.New(tu), be).ApplyAll()
	if err != nil {
		t.Fatalf("ApplyAll(%s): %v", name, err)
	}
	return res
}

const renameInput = `
void example(void) {
    char buf[10];
    char src[100];
    strcpy(buf, src);
    strcat(buf, src);
    sprintf(buf, "%s", src);
}
`

// TestBackendRenameShapes pins each dialect's emitted call shape on the
// same input — including the Annex K argument reordering (destination
// size before the source).
func TestBackendRenameShapes(t *testing.T) {
	cases := []struct {
		backend string
		want    []string
	}{
		{"glib", []string{
			"g_strlcpy(buf, src, sizeof(buf))",
			"g_strlcat(buf, src, sizeof(buf))",
			`g_snprintf(buf, sizeof(buf), "%s", src)`,
		}},
		{"bsd", []string{
			"strlcpy(buf, src, sizeof(buf))",
			"strlcat(buf, src, sizeof(buf))",
			`snprintf(buf, sizeof(buf), "%s", src)`,
		}},
		{"c11k", []string{
			"strcpy_s(buf, sizeof(buf), src)",
			"strcat_s(buf, sizeof(buf), src)",
			`sprintf_s(buf, sizeof(buf), "%s", src)`,
		}},
	}
	for _, c := range cases {
		res := runAllBackend(t, c.backend, renameInput)
		if res.AppliedCount() != 3 {
			t.Fatalf("%s: applied %d/3; sites: %+v", c.backend, res.AppliedCount(), res.Sites)
		}
		for _, want := range c.want {
			if !strings.Contains(res.NewSource, want) {
				t.Fatalf("%s output missing %q:\n%s", c.backend, want, res.NewSource)
			}
		}
		for i, s := range res.Sites {
			safe := strings.SplitN(c.want[i], "(", 2)[0]
			if s.SafeName != safe {
				t.Fatalf("%s site %d SafeName = %q, want %q", c.backend, i, s.SafeName, safe)
			}
		}
		if !res.NeedsGlib {
			t.Fatalf("%s: library requirement not flagged", c.backend)
		}
		reparse(t, res.NewSource)
	}
}

// TestBackendGetsShapes: fgets dialects insert the stream argument and
// strip the kept newline; gets_s takes only the size and discards the
// newline itself, so no stripping sequence may appear.
func TestBackendGetsShapes(t *testing.T) {
	src := `
void read_line(void) {
    char buf[16];
    gets(buf);
}
`
	for _, name := range []string{"glib", "bsd"} {
		res := runAllBackend(t, name, src)
		if res.AppliedCount() != 1 {
			t.Fatalf("%s: applied %d/1", name, res.AppliedCount())
		}
		if !strings.Contains(res.NewSource, "fgets(buf, sizeof(buf), stdin)") {
			t.Fatalf("%s output:\n%s", name, res.NewSource)
		}
		if !strings.Contains(res.NewSource, "strchr(buf, '\\n')") {
			t.Fatalf("%s: newline strip missing:\n%s", name, res.NewSource)
		}
		if res.NeedsGlib {
			t.Fatalf("%s: fgets is libc, must not flag the dialect library", name)
		}
		reparse(t, res.NewSource)
	}
	res := runAllBackend(t, "c11k", src)
	if res.AppliedCount() != 1 {
		t.Fatalf("c11k: applied %d/1", res.AppliedCount())
	}
	if !strings.Contains(res.NewSource, "gets_s(buf, sizeof(buf))") {
		t.Fatalf("c11k output:\n%s", res.NewSource)
	}
	if strings.Contains(res.NewSource, "strchr") {
		t.Fatalf("c11k: gets_s discards the newline; no strip expected:\n%s", res.NewSource)
	}
	if !res.NeedsGlib {
		t.Fatal("c11k: gets_s needs the Annex K declarations")
	}
	reparse(t, res.NewSource)
}

// TestBackendMemcpyShapes: glib and bsd clamp the length in place;
// c11k renames to memcpy_s with the destination size inserted before
// the source.
func TestBackendMemcpyShapes(t *testing.T) {
	src := `
void copy(int n) {
    char buf[8];
    char data[64];
    memcpy(buf, data, n);
}
`
	for _, name := range []string{"glib", "bsd"} {
		res := runAllBackend(t, name, src)
		if res.AppliedCount() != 1 {
			t.Fatalf("%s: applied %d/1", name, res.AppliedCount())
		}
		if !strings.Contains(res.NewSource, "memcpy(buf, data, sizeof(buf) > n ? n : sizeof(buf))") {
			t.Fatalf("%s output:\n%s", name, res.NewSource)
		}
		reparse(t, res.NewSource)
	}
	res := runAllBackend(t, "c11k", src)
	if res.AppliedCount() != 1 {
		t.Fatalf("c11k: applied %d/1", res.AppliedCount())
	}
	if !strings.Contains(res.NewSource, "memcpy_s(buf, sizeof(buf), data, n)") {
		t.Fatalf("c11k output:\n%s", res.NewSource)
	}
	reparse(t, res.NewSource)
}

// TestBackendIdempotentPerDialect: a second pass over each dialect's
// output must change nothing — the emitted safe callees are not in the
// unsafe set, and re-clamped memcpy declines via FailAlreadyClamped.
func TestBackendIdempotentPerDialect(t *testing.T) {
	src := renameInput + `
void more(int n) {
    char buf[8];
    char data[64];
    memcpy(buf, data, n);
    gets(buf);
}
`
	for _, name := range []string{"glib", "bsd", "c11k"} {
		first := runAllBackend(t, name, src)
		second := runAllBackend(t, name, first.NewSource)
		if second.AppliedCount() != 0 {
			t.Fatalf("%s: second pass applied %d sites; sites: %+v",
				name, second.AppliedCount(), second.Sites)
		}
		if second.NewSource != first.NewSource {
			t.Fatalf("%s: second pass changed the text:\n--- first ---\n%s\n--- second ---\n%s",
				name, first.NewSource, second.NewSource)
		}
	}
}

// TestBackendGlibMatchesDefault: the explicit glib backend and the
// historical default constructor must be byte-identical.
func TestBackendGlibMatchesDefault(t *testing.T) {
	src := renameInput
	viaDefault := runAll(t, src)
	viaGlib := runAllBackend(t, "glib", src)
	if viaDefault.NewSource != viaGlib.NewSource {
		t.Fatal("explicit glib backend diverges from the default transformer")
	}
}

// TestBackendDegenerateCallDeclines: a malformed unsafe call with too
// few arguments declines with an unsupported-form failure instead of
// emitting garbage (or indexing out of range).
func TestBackendDegenerateCallDeclines(t *testing.T) {
	src := `
void f(void) {
    char buf[8];
    strcpy(buf);
}
`
	for _, name := range []string{"glib", "bsd", "c11k"} {
		res := runAllBackend(t, name, src)
		if res.AppliedCount() != 0 {
			t.Fatalf("%s: transformed a 1-argument strcpy", name)
		}
		if len(res.Sites) != 1 || res.Sites[0].Failure == nil {
			t.Fatalf("%s: expected one declined site, got %+v", name, res.Sites)
		}
	}
}

// TestValueUsedSiteDeclines pins that SLR keeps the meaning of a call
// whose value the program reads: under every dialect the strcpy whose
// value is used declines (its replacement returns a length or an
// errno_t, not the destination), a statement-level strcpy still applies,
// and a used call nested in a clamped memcpy length no longer queues
// overlapping edits.
func TestValueUsedSiteDeclines(t *testing.T) {
	shapes := []struct {
		name, stmt string
		applied    int // statement-level sites that still apply
	}{
		{"assigned", `char *p = strcpy(a, "x");`, 0},
		{"nested_source", `strcpy(a, strcpy(c, "x"));`, 1},
		{"condition", `if (strcpy(a, b)) { a[0] = 0; }`, 0},
		// A dialect that clamps the length declines the memcpy too
		// (TestClampDeclinesLengthEffects); one that renames it applies.
		{"clamped_length", `memcpy(a, b, strlen(strcpy(c, "x")));`, 1},
	}
	for _, be := range backend.Names() {
		for _, sh := range shapes {
			t.Run(be+"/"+sh.name, func(t *testing.T) {
				if sh.name == "clamped_length" && clamps(t, be) {
					sh.applied = 0
				}
				src := "void f(void) {\n    char a[8];\n    char b[8];\n    char c[8];\n    b[0] = 0;\n    " + sh.stmt + "\n}\n"
				res := runAllBackend(t, be, src)
				declined := 0
				for _, s := range res.Sites {
					if s.Failure != nil && s.Failure.Reason == buflen.FailValueUsed {
						declined++
						if s.Function != "strcpy" {
							t.Errorf("%s declined as value-used", s.Function)
						}
					}
				}
				if declined != 1 || res.AppliedCount() != sh.applied {
					t.Fatalf("value-used declines = %d, applied = %d; want 1, %d; sites %+v", declined, res.AppliedCount(), sh.applied, res.Sites)
				}
				reparse(t, res.NewSource)
			})
		}
	}
	// A replacement that returns a pointer keeps a used value's meaning.
	res := runAll(t, "void f(void) {\n    char c[8];\n    if (gets(c)) { c[0] = 0; }\n}\n")
	if res.AppliedCount() != 1 || !strings.Contains(res.NewSource, "if (fgets(c, sizeof(c), stdin))") {
		t.Fatalf("gets in a condition: applied %d\n%s", res.AppliedCount(), res.NewSource)
	}
}

// clamps reports whether the named dialect rewrites memcpy by clamping
// its length in place.
func clamps(t *testing.T, name string) bool {
	t.Helper()
	be, err := backend.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := be.Lookup("memcpy")
	return ok && r.Kind == backend.KindClamp
}

// TestClampDeclinesLengthEffects: a dialect that clamps memcpy's length
// spells the length twice, so it declines a length that assigns,
// increments or calls anything but strlen, and the output evaluates the
// length exactly as often as the input; a strlen length still clamps.
// A dialect that renames memcpy keeps the length as one argument.
func TestClampDeclinesLengthEffects(t *testing.T) {
	// once is the text the output must spell exactly once: the length,
	// or the call in it that SLR rewrites.
	shapes := []struct{ name, length, once string }{
		{"increment", "n++", "n++"},
		{"pre_decrement", "--n", "--n"},
		{"assignment", "n = 4", "n = 4"},
		{"nested_call", `strlen(strcpy(c, "x"))`, `strcpy(c, "x")`},
		{"library_call", "rand()", "rand()"},
		// A site nested in the length used to queue an edit inside the
		// clamp's replacement, failing the whole splice.
		{"nested_site", "strlen(gets(c))", "gets"},
	}
	for _, be := range backend.Names() {
		for _, sh := range shapes {
			t.Run(be+"/"+sh.name, func(t *testing.T) {
				src := "void f(int n) {\n    char a[8];\n    char b[8];\n    char c[8];\n    b[0] = 0;\n    memcpy(a, b, " + sh.length + ");\n}\n"
				res := runAllBackend(t, be, src)
				if got := strings.Count(res.NewSource, sh.once); got != 1 {
					t.Fatalf("output spells %q %d times:\n%s", sh.once, got, res.NewSource)
				}
				memcpy := res.Sites[0]
				if memcpy.Function != "memcpy" {
					t.Fatalf("first site is %s", memcpy.Function)
				}
				if clamps(t, be) {
					if memcpy.Applied || memcpy.Failure == nil || memcpy.Failure.Reason != buflen.FailLengthEffect {
						t.Fatalf("memcpy: applied %v, failure %v; want a length-effect decline", memcpy.Applied, memcpy.Failure)
					}
				} else if !memcpy.Applied {
					t.Fatalf("memcpy declined: %v", memcpy.Failure)
				}
				reparse(t, res.NewSource)
			})
		}
		t.Run(be+"/strlen", func(t *testing.T) {
			res := runAllBackend(t, be, "void f(void) {\n    char a[8];\n    char b[8];\n    b[0] = 0;\n    memcpy(a, b, strlen(b));\n}\n")
			if res.AppliedCount() != 1 {
				t.Fatalf("applied %d/1: %+v", res.AppliedCount(), res.Sites)
			}
			if clamps(t, be) && !strings.Contains(res.NewSource, "memcpy(a, b, sizeof(a) > strlen(b) ? strlen(b) : sizeof(a))") {
				t.Fatalf("strlen length not clamped:\n%s", res.NewSource)
			}
			reparse(t, res.NewSource)
		})
	}
}
