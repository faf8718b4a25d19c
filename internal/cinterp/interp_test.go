package cinterp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cparse"
	"repro/internal/stralloc"
	"repro/internal/typecheck"
)

// loadAndRun parses, checks and runs src's entry function with the given
// stdin lines.
func loadAndRun(name, src, entry string, stdin []string, limits Limits) (*Result, error) {
	unit, err := cparse.Parse(name, src)
	if err != nil {
		return nil, fmt.Errorf("cinterp: parse: %w", err)
	}
	typecheck.Check(unit)
	in, err := New(unit, limits)
	if err != nil {
		return nil, err
	}
	in.SetStdin(stdin)
	return in.Run(entry)
}

// byCWE counts a run's memory-safety events per CWE.
func byCWE(r *Result) map[int]int {
	out := make(map[int]int)
	for _, v := range r.Violations {
		out[v.CWE]++
	}
	return out
}

// run executes src's entry function, failing the test on hard errors.
func run(t *testing.T, src, entry string, stdin ...string) *Result {
	t.Helper()
	res, err := loadAndRun("t.c", src, entry, stdin, Limits{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestHelloWorld(t *testing.T) {
	res := run(t, `
int main(void) {
    printf("hello %s, %d\n", "world", 42);
    return 7;
}
`, "main")
	if res.Stdout != "hello world, 42\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
	if res.Return != 7 {
		t.Fatalf("return: %d", res.Return)
	}
	if res.HasViolations() {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	res := run(t, `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main(void) {
    int i;
    int total = 0;
    for (i = 0; i < 10; i++) {
        total += fib(i);
    }
    printf("%d\n", total);
    return 0;
}
`, "main")
	if res.Stdout != "88\n" {
		t.Fatalf("stdout: %q (fib sum 0..9 = 88)", res.Stdout)
	}
}

func TestWhileDoWhileSwitch(t *testing.T) {
	res := run(t, `
int main(void) {
    int n = 0;
    int x = 3;
    while (n < 3) { n++; }
    do { n++; } while (n < 5);
    switch (x) {
    case 1:
        printf("one");
        break;
    case 3:
        printf("three ");
    case 4:
        printf("fall");
        break;
    default:
        printf("other");
    }
    printf(" n=%d\n", n);
    return 0;
}
`, "main")
	if res.Stdout != "three fall n=5\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestGotoFlow(t *testing.T) {
	res := run(t, `
int main(void) {
    int n = 0;
loop:
    n++;
    if (n < 3) { goto loop; }
    printf("%d\n", n);
    return 0;
}
`, "main")
	if res.Stdout != "3\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestPointersAndArrays(t *testing.T) {
	res := run(t, `
int main(void) {
    int a[4];
    int *p = a;
    int i;
    for (i = 0; i < 4; i++) { a[i] = i * 10; }
    p = p + 2;
    printf("%d %d %d\n", *p, p[1], p - a);
    return 0;
}
`, "main")
	if res.Stdout != "20 30 2\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
	if res.HasViolations() {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestStructsAndMembers(t *testing.T) {
	res := run(t, `
struct point { int x; int y; };
struct rect { struct point min; struct point max; };
int main(void) {
    struct rect r;
    struct rect *pr = &r;
    r.min.x = 1;
    r.min.y = 2;
    pr->max.x = 3;
    pr->max.y = 4;
    printf("%d %d %d %d\n", r.min.x, r.min.y, r.max.x, r.max.y);
    return 0;
}
`, "main")
	if res.Stdout != "1 2 3 4\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestStructAssignmentCopies(t *testing.T) {
	res := run(t, `
struct pair { int a; int b; };
int main(void) {
    struct pair p1;
    struct pair p2;
    p1.a = 10;
    p1.b = 20;
    p2 = p1;
    p1.a = 99;
    printf("%d %d\n", p2.a, p2.b);
    return 0;
}
`, "main")
	if res.Stdout != "10 20\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestStringFunctions(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[32];
    strcpy(buf, "hello");
    strcat(buf, " world");
    printf("%s %d\n", buf, strlen(buf));
    printf("%d\n", strcmp(buf, "hello world"));
    char *p = strchr(buf, 'w');
    printf("%s\n", p);
    return 0;
}
`, "main")
	want := "hello world 11\n0\nworld\n"
	if res.Stdout != want {
		t.Fatalf("stdout: %q, want %q", res.Stdout, want)
	}
	if res.HasViolations() {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestHeapAllocAndFree(t *testing.T) {
	res := run(t, `
int main(void) {
    char *p = malloc(16);
    strcpy(p, "heap");
    printf("%s %d\n", p, malloc_usable_size(p));
    free(p);
    return 0;
}
`, "main")
	if res.Stdout != "heap 16\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

// --- Violation detection: one test per CWE class of Table III ---

func TestDetectStackOverflowCWE121(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[10];
    strcpy(buf, "this string is much longer than ten bytes");
    return 0;
}
`, "main")
	if got := byCWE(res)[121]; got == 0 {
		t.Fatalf("expected CWE-121, got %v", res.Violations)
	}
}

func TestDetectHeapOverflowCWE122(t *testing.T) {
	res := run(t, `
int main(void) {
    char *buf = malloc(8);
    memset(buf, 'A', 50);
    return 0;
}
`, "main")
	if got := byCWE(res)[122]; got == 0 {
		t.Fatalf("expected CWE-122, got %v", res.Violations)
	}
}

func TestDetectUnderwriteCWE124(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[16];
    char *p = buf;
    p = p - 8;
    *p = 'x';
    return 0;
}
`, "main")
	if got := byCWE(res)[124]; got == 0 {
		t.Fatalf("expected CWE-124, got %v", res.Violations)
	}
}

func TestDetectOverreadCWE126(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[8];
    char c;
    memset(buf, 'A', 8);
    c = buf[20];
    putchar(c);
    return 0;
}
`, "main")
	if got := byCWE(res)[126]; got == 0 {
		t.Fatalf("expected CWE-126, got %v", res.Violations)
	}
}

func TestDetectUnderreadCWE127(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[8];
    char *p = buf;
    char c;
    p = p - 4;
    c = *p;
    putchar(c);
    return 0;
}
`, "main")
	if got := byCWE(res)[127]; got == 0 {
		t.Fatalf("expected CWE-127, got %v", res.Violations)
	}
}

func TestDetectGetsOverflowCWE121(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[8];
    gets(buf);
    printf("%s\n", buf);
    return 0;
}
`, "main", "a very long line that overflows the small buffer")
	if got := byCWE(res)[121]; got == 0 {
		t.Fatalf("expected CWE-121 from gets, got %v", res.Violations)
	}
}

func TestFgetsBounded(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[8];
    fgets(buf, sizeof(buf), stdin);
    printf("%s", buf);
    return 0;
}
`, "main", "a very long line")
	if res.HasViolations() {
		t.Fatalf("fgets must not overflow: %v", res.Violations)
	}
	if res.Stdout != "a very " {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestGStrlcpyTruncates(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[8];
    g_strlcpy(buf, "much longer than eight", sizeof(buf));
    printf("%s\n", buf);
    return 0;
}
`, "main")
	if res.HasViolations() {
		t.Fatalf("g_strlcpy must not overflow: %v", res.Violations)
	}
	if res.Stdout != "much lo\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestUseAfterFreeDetected(t *testing.T) {
	res := run(t, `
int main(void) {
    char *p = malloc(8);
    free(p);
    *p = 'x';
    return 0;
}
`, "main")
	if got := byCWE(res)[416]; got == 0 {
		t.Fatalf("expected CWE-416, got %v", res.Violations)
	}
}

func TestNullDerefDetected(t *testing.T) {
	res := run(t, `
int main(void) {
    char *p = 0;
    *p = 'x';
    return 0;
}
`, "main")
	if got := byCWE(res)[476]; got == 0 {
		t.Fatalf("expected CWE-476, got %v", res.Violations)
	}
}

func TestSignExtensionSprintfCVE(t *testing.T) {
	// The LibTIFF tiff2pdf mechanism: a char with the high bit set is
	// sign-extended, %o prints 11 digits, overflowing char buffer[5].
	res := run(t, `
int main(void) {
    char buffer[5];
    char c = 0xE9;
    sprintf(buffer, "\\%.3o", c);
    return 0;
}
`, "main")
	if got := byCWE(res)[121]; got == 0 {
		t.Fatalf("expected CWE-121 from sign-extended %%o, got %v", res.Violations)
	}
	// And the SLR fix (g_snprintf with sizeof) removes it.
	res2 := run(t, `
int main(void) {
    char buffer[5];
    char c = 0xE9;
    g_snprintf(buffer, sizeof(buffer), "\\%.3o", c);
    return 0;
}
`, "main")
	if res2.HasViolations() {
		t.Fatalf("bounded snprintf must not overflow: %v", res2.Violations)
	}
}

func TestPrintfFormats(t *testing.T) {
	res := run(t, `
int main(void) {
    printf("[%5d][%-5d][%05d]", 42, 42, 42);
    printf("[%x][%X][%o]", 255, 255, 8);
    printf("[%c][%%]", 65);
    printf("[%.3o]", 7);
    printf("[%u]", 10);
    printf("[%.2s]", "abcdef");
    return 0;
}
`, "main")
	want := "[   42][42   ][00042][ff][FF][10][A][%][007][10][ab]"
	if res.Stdout != want {
		t.Fatalf("stdout: %q, want %q", res.Stdout, want)
	}
}

func TestUnsignedComparison(t *testing.T) {
	// size_t comparisons must be unsigned: (unsigned long)-1 > 10.
	res := run(t, `
int main(void) {
    unsigned long a = 0;
    a = a - 1;
    if (a > 10) { printf("big\n"); } else { printf("small\n"); }
    return 0;
}
`, "main")
	if res.Stdout != "big\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestCharSignExtension(t *testing.T) {
	res := run(t, `
int main(void) {
    char c = 0x80;
    int i = c;
    printf("%d\n", i);
    return 0;
}
`, "main")
	if res.Stdout != "-128\n" {
		t.Fatalf("stdout: %q (char must be signed)", res.Stdout)
	}
}

func TestGlobalVariables(t *testing.T) {
	res := run(t, `
int counter = 5;
char message[16] = "start";
void bump(void) { counter++; }
int main(void) {
    bump();
    bump();
    printf("%d %s\n", counter, message);
    return 0;
}
`, "main")
	if res.Stdout != "7 start\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestStrallocLibraryExecutes(t *testing.T) {
	// The interpreted stralloc library (internal/stralloc C source) must
	// behave correctly: copy, cat, bounds-checked access.
	src := stralloc.FullSource() + `
int main(void) {
    stralloc sa = {0,0,0};
    stralloc *buf = &sa;
    stralloc_copys(buf, "hello");
    stralloc_cats(buf, " world");
    printf("%s %d\n", buf->s, buf->len);
    printf("%d\n", stralloc_get_dereferenced_char_at(buf, 4));
    printf("%d\n", stralloc_get_dereferenced_char_at(buf, 1000));
    stralloc_dereference_replace_by(buf, 0, 'H');
    printf("%s\n", buf->s);
    return 0;
}
`
	res := run(t, src, "main")
	want := "hello world 11\n111\n0\nHello world\n"
	if res.Stdout != want {
		t.Fatalf("stdout: %q, want %q", res.Stdout, want)
	}
	if res.HasViolations() {
		t.Fatalf("stralloc library must be violation-free: %v", res.Violations)
	}
}

func TestStrallocPreventsOverflow(t *testing.T) {
	// A former CWE-121: memset of 100 bytes into a 10-byte buffer. After
	// STR-style conversion, stralloc_memset clamps to the capacity.
	src := stralloc.FullSource() + `
int main(void) {
    stralloc sa = {0,0,0};
    stralloc *buf = &sa;
    buf->a = 10;
    stralloc_memset(buf, 'A', 100);
    printf("%d\n", buf->len);
    return 0;
}
`
	res := run(t, src, "main")
	if res.HasViolations() {
		t.Fatalf("stralloc_memset must not overflow: %v", res.Violations)
	}
	if res.Stdout != "10\n" {
		t.Fatalf("stdout: %q (fill clamped to capacity)", res.Stdout)
	}
}

func TestStepLimitEnforced(t *testing.T) {
	_, err := loadAndRun("t.c", `
int main(void) {
    for (;;) {}
    return 0;
}
`, "main", nil, Limits{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("expected step limit error, got %v", err)
	}
}

func TestExitStopsExecution(t *testing.T) {
	res := run(t, `
int main(void) {
    printf("before\n");
    exit(3);
    printf("after\n");
    return 0;
}
`, "main")
	if res.Stdout != "before\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
	if res.Return != 3 {
		t.Fatalf("return: %d", res.Return)
	}
}

func TestTernaryAndLogicalOps(t *testing.T) {
	res := run(t, `
int side_effect(int *p) { *p = *p + 1; return 0; }
int main(void) {
    int calls = 0;
    int x = 5;
    int y = x > 3 ? 10 : 20;
    // Short circuit: side_effect must not run.
    if (0 && side_effect(&calls)) { y = 0; }
    if (1 || side_effect(&calls)) { y += 1; }
    printf("%d %d\n", y, calls);
    return 0;
}
`, "main")
	if res.Stdout != "11 0\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestEnumValues(t *testing.T) {
	res := run(t, `
enum color { RED, GREEN = 5, BLUE };
int main(void) {
    printf("%d %d %d\n", RED, GREEN, BLUE);
    return 0;
}
`, "main")
	if res.Stdout != "0 5 6\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestTwoDimensionalArray(t *testing.T) {
	res := run(t, `
int main(void) {
    int m[2][3];
    int i;
    int j;
    for (i = 0; i < 2; i++) {
        for (j = 0; j < 3; j++) {
            m[i][j] = i * 3 + j;
        }
    }
    printf("%d %d\n", m[1][2], m[0][1]);
    return 0;
}
`, "main")
	if res.Stdout != "5 1\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestArrayParameterSharing(t *testing.T) {
	res := run(t, `
void fill(char *dst, char c) { dst[0] = c; }
int main(void) {
    char buf[4];
    buf[0] = 'a';
    fill(buf, 'z');
    printf("%c\n", buf[0]);
    return 0;
}
`, "main")
	if res.Stdout != "z\n" {
		t.Fatalf("stdout: %q (arrays decay to shared pointers)", res.Stdout)
	}
}

func TestViolationPositionsReported(t *testing.T) {
	res := run(t, `int main(void) {
    char buf[4];
    strcpy(buf, "overflowing content");
    return 0;
}
`, "main")
	if len(res.Violations) == 0 {
		t.Fatal("expected a violation")
	}
	v := res.Violations[0]
	if v.Pos.Line != 3 {
		t.Fatalf("violation line: got %d, want 3 (%s)", v.Pos.Line, v)
	}
}

func TestMemcpyClampTernaryPattern(t *testing.T) {
	// The SLR option-2 rewrite must be executable and safe.
	res := run(t, `
int main(void) {
    char dst[8];
    char src[32];
    memset(src, 'x', 31);
    src[31] = '\0';
    unsigned long n = 31;
    memcpy(dst, src, sizeof(dst) > n ? n : sizeof(dst));
    printf("%c\n", dst[7]);
    return 0;
}
`, "main")
	if res.HasViolations() {
		t.Fatalf("clamped memcpy must be safe: %v", res.Violations)
	}
	if res.Stdout != "x\n" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}
