package str

import (
	"strings"
	"testing"
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
	res := runAll(t, `
void f(void) {
    char *p;
    p = "abc";
    p[0] += 1;
}
`)
	if res.Vars[0].Applied {
		t.Fatal("compound assignment to an element is outside the patterns")
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
	if !strings.Contains(res.NewSource, "stralloc_catbuf(buf, src, 5)") {
		t.Fatalf("output:\n%s", res.NewSource)
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
	if !strings.Contains(res.NewSource, "strcpy(out, name->s)") {
		t.Fatalf("output:\n%s", res.NewSource)
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
	out := res.NewSource
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
	if !strings.Contains(res.NewSource, "return p->s;") {
		t.Fatalf("output:\n%s", res.NewSource)
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
	out := res.NewSource
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
	if !strings.Contains(res.NewSource, "switch (stralloc_get_dereferenced_char_at(p, 0))") {
		t.Fatalf("switch tag:\n%s", res.NewSource)
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
	out := res.NewSource
	if !strings.Contains(out, "while (stralloc_get_dereferenced_char_at(p, i))") {
		t.Fatalf("do-while cond:\n%s", out)
	}
	if !strings.Contains(out, "stralloc_increment_by(p, 1)") {
		t.Fatalf("for post clause:\n%s", out)
	}
	reparse(t, res)
}

func TestLogMessagesDetailRefusals(t *testing.T) {
	res := runAll(t, `
void writes(char *s) { s[0] = 'w'; }
void f(void) {
    char *a;
    a = malloc(4);
    writes(a);
}
`)
	if len(res.Log) != 1 {
		t.Fatalf("log entries: %d", len(res.Log))
	}
	if !strings.Contains(res.Log[0], "writes") || !strings.Contains(res.Log[0], `"a"`) {
		t.Fatalf("log: %s", res.Log[0])
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
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.NewSource
	if !strings.Contains(out, "p = (char*)0;") || !strings.Contains(out, "p = (void*)0;") {
		t.Fatalf("null casts must stay (pattern 4):\n%s", out)
	}
	reparse(t, res)
}

func TestBracelessAllocationBraced(t *testing.T) {
	res := runAll(t, `
void f(int c) {
    char *buf;
    if (c)
        buf = malloc(16);
    else
        buf = 0;
    buf[0] = 'x';
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Vars)
	}
	out := res.NewSource
	if !strings.Contains(out, "{ buf->s = malloc(16); buf->f = buf->s; buf->a = 16; }") {
		t.Fatalf("allocation not braced:\n%s", out)
	}
	if !strings.Contains(out, "buf = 0;") {
		t.Fatalf("null arm must stay:\n%s", out)
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
	out := res.NewSource
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
	out := res.NewSource
	if !strings.Contains(out, "stralloc_get_dereferenced_char_at(p, -(2))") {
		t.Fatalf("negative deref read:\n%s", out)
	}
	if !strings.Contains(out, "stralloc_dereference_replace_by(p, -(1), 'z')") {
		t.Fatalf("negative deref write:\n%s", out)
	}
	reparse(t, res)
}
