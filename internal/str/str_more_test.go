package str

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/stralloc"
)

func TestForInitDeclRefused(t *testing.T) {
	res := runAll(t, `
void f(void) {
    for (char *p = "x"; p[0]; p++) {}
}
`)
	if len(res.Vars) != 1 || res.Vars[0].Applied {
		t.Fatalf("for-init declarations are refused: %+v", res.Vars)
	}
	if res.Vars[0].Reason != FailUnsupportedUse {
		t.Fatalf("reason: %v", res.Vars[0].Reason)
	}
}

func TestValueUseOfIncrementRefused(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *p;
    char *q;
    p = "abc";
    q = p++;
}
`)
	for _, v := range res.Vars {
		if v.Name == "p" && v.Applied {
			t.Fatal("p++ used as a value must refuse p")
		}
	}
}

func TestCompoundElementAssignRefused(t *testing.T) {
	for _, use := range []string{"p[0] += 1;", "*p += 1;", "*(p + 1) -= 1;"} {
		res := runAll(t, "\nvoid f(void) {\n    char *p;\n    p = \"abc\";\n    "+use+"\n}\n")
		if res.Vars[0].Applied {
			t.Fatalf("compound assignment to an element is outside the patterns: %s\n%s", use, res.Out)
		}
	}
}

func TestAssignmentAsValueRefused(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *p;
    char *q;
    q = (p = "abc");
}
`)
	for _, v := range res.Vars {
		if v.Name == "p" && v.Applied {
			t.Fatal("assignment-as-value must refuse p")
		}
	}
}

func TestIntegerAssignmentRefused(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *p;
    p = 42;
}
`)
	if res.Vars[0].Applied {
		t.Fatal("assigning a non-zero integer to the pointer is refused")
	}
}

func TestTernaryValueRefused(t *testing.T) {
	res := runAll(t, `
void f(int c) {
    char *p;
    p = c ? malloc(4) : malloc(8);
}
`)
	if res.Vars[0].Applied {
		t.Fatal("conditional pointer values are outside the patterns")
	}
}

func TestStrncatMapped(t *testing.T) {
	res := runAll(t, `
void f(char *src) {
    char *buf;
    buf = malloc(64);
    strncat(buf, src, 5);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Vars)
	}
	if !strings.Contains(res.Out, "stralloc_catbuf(buf, src, 5)") {
		t.Fatalf("output:\n%s", res.Out)
	}
	reparse(t, res)
}

func TestTargetAsSourceOfMappedCall(t *testing.T) {
	// The target appears in a source position of strcpy; the destination
	// is a plain parameter.
	res := runAll(t, `
void f(char *out) {
    char *name;
    name = "fixture";
    strcpy(out, name);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Vars)
	}
	if !strings.Contains(res.Out, "strcpy(out, name->s)") {
		t.Fatalf("output:\n%s", res.Out)
	}
	reparse(t, res)
}

func TestSizeofInDeclarationInitializer(t *testing.T) {
	// A later declaration's initializer references the target: the
	// DeclStmt path must still rewrite it.
	res := runAll(t, `
void f(void) {
    char *p;
    p = "abcdef";
    unsigned long n = sizeof(p) + strlen(p);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.Out
	if !strings.Contains(out, "p->a + p->len") {
		t.Fatalf("initializer not rewritten:\n%s", out)
	}
	reparse(t, res)
}

func TestReturnOfTarget(t *testing.T) {
	res := runAll(t, `
char *f(void) {
    char *p;
    p = malloc(8);
    return p;
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Vars)
	}
	if !strings.Contains(res.Out, "return p->s;") {
		t.Fatalf("output:\n%s", res.Out)
	}
	reparse(t, res)
}

func TestWhileAndForConditionsRewritten(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *p;
    int i;
    p = "abc";
    while (p[0] != '\0') { break; }
    for (i = 0; i < strlen(p); i++) {}
}
`)
	out := res.Out
	if !strings.Contains(out, "while (stralloc_get_dereferenced_char_at(p, 0) != '\\0')") {
		t.Fatalf("while condition:\n%s", out)
	}
	if !strings.Contains(out, "i < p->len") {
		t.Fatalf("for condition:\n%s", out)
	}
	reparse(t, res)
}

func TestSwitchTagRewritten(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *p;
    p = "x";
    switch (p[0]) {
    case 'x':
        break;
    default:
        break;
    }
}
`)
	if !strings.Contains(res.Out, "switch (stralloc_get_dereferenced_char_at(p, 0))") {
		t.Fatalf("switch tag:\n%s", res.Out)
	}
	reparse(t, res)
}

func TestDoWhileAndPostClause(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *p;
    int i;
    p = "abcdef";
    do { i = 0; } while (p[i]);
    for (i = 0; i < 3; p++) { i++; }
}
`)
	out := res.Out
	if !strings.Contains(out, "while (stralloc_get_dereferenced_char_at(p, i))") {
		t.Fatalf("do-while cond:\n%s", out)
	}
	if !strings.Contains(out, "stralloc_increment_by(p, 1)") {
		t.Fatalf("for post clause:\n%s", out)
	}
	reparse(t, res)
}

// TestLogMessagesDetailRefusals: a refusal carries the variable, the
// reason and the modifying callee, the detail Report.Summary prints.
func TestLogMessagesDetailRefusals(t *testing.T) {
	res := runAll(t, `
void writes(char *s) { s[0] = 'w'; }
void f(void) {
    char *a;
    a = malloc(4);
    writes(a);
}
`)
	if len(res.Vars) != 1 {
		t.Fatalf("candidates: %+v", res.Vars)
	}
	if v := res.Vars[0]; v.Applied || v.Name != "a" || v.Reason != FailUserFnMayModify || v.Detail != "writes" {
		t.Fatalf("refusal: %+v", v)
	}
}

func TestCastNullStaysAssignment(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *p;
    p = (char*)0;
    p = (void*)0;
}
`)
	// A stralloc has no null state, so a null assignment declines the
	// variable and the assignments stay as written.
	if v := res.Vars[0]; v.Applied || v.Reason != FailUnsupportedUse || v.Detail != "assigned null pointer (char*)0" {
		t.Fatalf("refusal: %+v", v)
	}
	out := res.Out
	if !strings.Contains(out, "p = (char*)0;") || !strings.Contains(out, "p = (void*)0;") {
		t.Fatalf("null casts must stay (pattern 4):\n%s", out)
	}
}

func TestBracelessAllocationBraced(t *testing.T) {
	res := runAll(t, `
void f(int c) {
    char *buf;
    if (c)
        buf = malloc(16);
    else
        buf = "none";
    buf[0] = 'x';
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.Out
	if !strings.Contains(out, "{ buf->s = malloc(16); buf->f = buf->s; buf->a = 16; }") {
		t.Fatalf("allocation not braced:\n%s", out)
	}
	if !strings.Contains(out, `stralloc_copybuf(buf, "none", strlen("none"));`) {
		t.Fatalf("literal arm not rewritten:\n%s", out)
	}
	reparse(t, res)
}

func TestForPostAllocationRefused(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *buf;
    int i;
    for (i = 0; i < 3; buf = malloc(4)) { i++; }
}
`)
	if res.Vars[0].Applied {
		t.Fatal("allocation in for-post clause must refuse the variable")
	}
}

func TestSpliceCompositeExpressions(t *testing.T) {
	// Targets nested inside ternaries, commas, casts and calls must all
	// splice correctly in value position.
	res := runAll(t, `
int g(int v) { return v; }
void f(int c) {
    char *p;
    int n;
    p = "abcdef";
    n = c ? p[0] : p[1];
    n = (g(c), p[2]);
    n = (int)strlen(p) + (c ? 1 : 0);
    n = g(p[3] + 1);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.Out
	for _, want := range []string{
		"n = c ? stralloc_get_dereferenced_char_at(p, 0) : stralloc_get_dereferenced_char_at(p, 1);",
		"n = (g(c), stralloc_get_dereferenced_char_at(p, 2));",
		"n = (int)p->len + (c ? 1 : 0);",
		"n = g(stralloc_get_dereferenced_char_at(p, 3) + 1);",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	reparse(t, res)
}

func TestNegativeDerefOffset(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *p;
    char c;
    p = "abcdef";
    stub_advance: ;
    c = *(p - 2);
    *(p - 1) = 'z';
}
`)
	out := res.Out
	if !strings.Contains(out, "stralloc_get_dereferenced_char_at(p, -(2))") {
		t.Fatalf("negative deref read:\n%s", out)
	}
	if !strings.Contains(out, "stralloc_dereference_replace_by(p, -(1), 'z')") {
		t.Fatalf("negative deref write:\n%s", out)
	}
	reparse(t, res)
}

// refused runs STR on src and requires its first candidate to be
// refused for reason with detail, leaving the text as it was.
func refused(t *testing.T, src string, reason FailReason, detail string) {
	t.Helper()
	res := runAll(t, src)
	if len(res.Vars) == 0 {
		t.Fatalf("candidates: %+v", res.Vars)
	}
	if v := res.Vars[0]; v.Applied || v.Reason != reason || v.Detail != detail {
		t.Fatalf("want %v (%s), got %+v\n%s", reason, detail, v, res.Out)
	}
	if res.Out != src {
		t.Fatalf("source changed:\n%s", res.Out)
	}
}

// TestStaticLocalRefused: a block-scope static keeps its value across
// calls; a stralloc local would lose it.
func TestStaticLocalRefused(t *testing.T) {
	refused(t, `
void f(void) {
    static char s[8];
    s[0] = 'a';
}
`, FailNotLocal, "static storage")
}

// TestBlockExternRefused: a block-scope extern names the global; a
// stralloc local would take its writes.
func TestBlockExternRefused(t *testing.T) {
	refused(t, `
void f(void) {
    extern char gbuf[16];
    gbuf[0] = 'b';
}
`, FailNotLocal, "extern declaration")
}

// TestElementAddressRefused: STR reads an element through a function
// whose char result has no address.
func TestElementAddressRefused(t *testing.T) {
	for _, use := range []string{"p = &t[0];", "p = &(t[1]);", "p = &*t;", "p = &*(t + 1);"} {
		refused(t, "\nvoid f(void) {\n    char t[8];\n    char *p;\n    t[0] = 'c';\n    "+use+"\n}\n",
			FailUnsupportedUse, "address of element taken")
	}
}

// TestElementStepRefused: the same char result cannot be incremented or
// decremented.
func TestElementStepRefused(t *testing.T) {
	for _, use := range []string{"t[0]++;", "--t[1];", "++*t;", "(*(t + 1))--;"} {
		refused(t, "\nvoid f(void) {\n    char t[8];\n    t[0] = 'c';\n    "+use+"\n}\n",
			FailUnsupportedUse, "element incremented or decremented")
	}
}

// TestElementAssignAsValueRefused: STR writes an element through a
// call whose value is a status, not the char stored.
func TestElementAssignAsValueRefused(t *testing.T) {
	for _, use := range []string{"t[1] = t[0] = 'y';", "if ((*t = 'y')) {}", "c = (t[2] = 'y');"} {
		refused(t, "\nvoid f(void) {\n    char t[8];\n    char c;\n    t[0] = 'x';\n    "+use+"\n}\n",
			FailUnsupportedUse, "element assignment used as a value")
	}
}

// TestKeptSiblingDeclarators: declarators that share a replaced
// variable's declaration are rewritten to statements of their own that
// parse and keep each sibling's type.
func TestKeptSiblingDeclarators(t *testing.T) {
	src := `
void f(void) {
    char a[8], (*pa)[4] = 0, *arr[2], **pp, c = 'x', m[2][3];
    a[0] = 'd';
}
`
	res := runAll(t, src)
	if res.AppliedCount() != 1 || len(res.Vars) != 1 {
		t.Fatalf("want a replaced: %+v", res.Vars)
	}
	reparse(t, res)
	before, after := localTypes(t, src), localTypes(t, stralloc.Header()+"\n"+res.Out)
	for _, name := range []string{"pa", "arr", "pp", "c", "m"} {
		if before[name] == "" || after[name] != before[name] {
			t.Fatalf("%s: type %q, want %q\n%s", name, after[name], before[name], res.Out)
		}
	}
}

// TestFunctionSiblingRefused: a block-scope function declarator has no
// object type to spell, so its siblings are left alone.
func TestFunctionSiblingRefused(t *testing.T) {
	refused(t, `
void f(void) {
    char a[8], *fp(void);
    a[0] = 'd';
}
`, FailUnsupportedUse, "declared beside function declarator fp")
}

// TestQualifiedSiblingsRefused: a kept sibling is spelled from its
// type, which carries no qualifiers, so a declaration that spells one
// keeps all of its variables.
func TestQualifiedSiblingsRefused(t *testing.T) {
	for _, c := range []struct{ decl, use, qual string }{
		{"volatile char v[4], w = 0;", "v[0] = 'd';", "volatile"},
		{"const char a[8] = \"abc\", *const q = 0;", "q = malloc(8);", "const"},
		{"char *restrict r, s = 0;", "r = malloc(8);", "restrict"},
	} {
		refused(t, "\nvoid f(void) {\n    "+c.decl+"\n    "+c.use+"\n}\n",
			FailUnsupportedUse, "declared beside siblings under "+c.qual)
	}
}

// localTypes parses src and returns the type of each declared variable
// in a function body by name.
func localTypes(t *testing.T, src string) map[string]string {
	t.Helper()
	tu, err := cparse.Parse("types.c", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	types := make(map[string]string)
	for _, fn := range tu.Funcs {
		cast.Inspect(fn.Body, func(n cast.Node) bool {
			if d, ok := n.(*cast.VarDecl); ok {
				types[d.Name] = d.Type.String()
			}
			return true
		})
	}
	return types
}

// TestNullPointerRefused declines a char pointer initialised or assigned
// any spelling of a null pointer constant, naming it: a stralloc has no
// null state to carry it.
func TestNullPointerRefused(t *testing.T) {
	for _, null := range []string{"0", "NULL", "(void *)0", "(char *)0", "((void *)0)"} {
		for _, body := range []string{"char *p = " + null + "; p = \"x\";", "char *p = \"x\"; if (p[0]) p = " + null + ";"} {
			res := runAll(t, "void f(void) { "+body+" }")
			if v := res.Vars[0]; v.Applied || v.Reason != FailUnsupportedUse || v.Detail != "assigned null pointer "+null {
				t.Errorf("%s: %+v", body, v)
			}
		}
	}
}
