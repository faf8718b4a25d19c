package buflen_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/buflen"
	"repro/internal/cast"
)

// destOfFirst locates the first call to callee and returns its destination
// (first) argument together with the enclosing function and analyzer.
func destOfFirst(t *testing.T, src, callee string) (*buflen.Analyzer, *cast.FuncDef, cast.Expr) {
	t.Helper()
	snap, err := analysis.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a := snap.BufLenAnalyzer()
	for _, fn := range snap.Unit().Funcs {
		var dest cast.Expr
		cast.Inspect(fn.Body, func(n cast.Node) bool {
			if c, ok := n.(*cast.CallExpr); ok && dest == nil && c.Callee() == callee {
				if len(c.Args) > 0 {
					dest = c.Args[0]
				}
			}
			return true
		})
		if dest != nil {
			return a, fn, dest
		}
	}
	t.Fatalf("no call to %s found", callee)
	return nil, nil, nil
}

// wantSize asserts a successful size with the given C text.
func wantSize(t *testing.T, src, callee, want string) {
	t.Helper()
	a, fn, dest := destOfFirst(t, src, callee)
	sz, fail := a.BufferLength(fn, dest)
	if fail != nil {
		t.Fatalf("BufferLength failed: %v", fail)
	}
	if got := sz.CText(); got != want {
		t.Fatalf("size: got %q, want %q", got, want)
	}
}

// wantFail asserts failure with the given reason.
func wantFail(t *testing.T, src, callee string, reason buflen.FailReason) {
	t.Helper()
	a, fn, dest := destOfFirst(t, src, callee)
	_, fail := a.BufferLength(fn, dest)
	if fail == nil {
		t.Fatal("expected failure, got a size")
	}
	if fail.Reason != reason {
		t.Fatalf("reason: got %v (%s), want %v", fail.Reason, fail.Detail, reason)
	}
}

func TestPaperExampleSectionIIA4(t *testing.T) {
	// The motivating SLR example: dst is a pointer whose reaching
	// definition is an assignment from the array buf.
	wantSize(t, `
void example(void) {
    char buf[10];
    char src[100];
    memset(src, 'c', 50);
    src[50] = '\0';
    char *dst = buf;
    strcpy(dst, src);
}
`, "strcpy", "sizeof(buf)")
}

func TestPaperExampleLibpngStrcat(t *testing.T) {
	// libpng minigzip.c line 275: array destination.
	wantSize(t, `
void f(void) {
    char outfile[30];
    strcat(outfile, ".gz");
}
`, "strcat", "sizeof(outfile)")
}

func TestPaperExampleGmpMemcpy(t *testing.T) {
	// gmp mpq/set_str.c: heap-allocated destination sized by
	// malloc_usable_size.
	wantSize(t, `
void f(char *str, unsigned long numlen) {
    char *num;
    num = malloc(numlen + 1);
    memcpy(num, str, numlen);
}
`, "memcpy", "malloc_usable_size(num)")
}

func TestArrayDestination(t *testing.T) {
	wantSize(t, `
void f(void) {
    char dest[100];
    gets(dest);
}
`, "gets", "sizeof(dest)")
}

func TestPointerArithmeticPlus(t *testing.T) {
	// Lines 8-15: p + 2 shrinks the region by 2.
	wantSize(t, `
void f(void) {
    char buf[10];
    char *p = buf;
    strcpy(p + 2, "x");
}
`, "strcpy", "sizeof(buf) - 2")
}

func TestPointerArithmeticMinus(t *testing.T) {
	wantSize(t, `
void f(void) {
    char buf[10];
    char *p = buf;
    p = p + 4;
    strcpy(p - 2, "x");
}
`, "strcpy", "sizeof(buf) - 2")
}

func TestPrefixIncrementDestination(t *testing.T) {
	// Lines 16-20: ++p means one byte less.
	wantSize(t, `
void f(void) {
    char buf[10];
    char *p = buf;
    strcpy(++p, "x");
}
`, "strcpy", "sizeof(buf) - 1")
}

func TestPrefixDecrementDestination(t *testing.T) {
	wantSize(t, `
void f(void) {
    char buf[10];
    char *p = buf;
    p = p + 5;
    strcpy(--p, "x");
}
`, "strcpy", "sizeof(buf) - 4")
}

func TestCastDestination(t *testing.T) {
	// Lines 21-22.
	wantSize(t, `
void f(void) {
    char buf[16];
    memcpy((void*)buf, "x", 1);
}
`, "memcpy", "sizeof(buf)")
}

func TestDefChainThroughIncrement(t *testing.T) {
	// p++ as a *definition* reaching the use.
	wantSize(t, `
void f(void) {
    char buf[10];
    char *p = buf;
    p++;
    strcpy(p, "x");
}
`, "strcpy", "sizeof(buf) - 1")
}

func TestDefChainCompoundAssign(t *testing.T) {
	wantSize(t, `
void f(void) {
    char buf[20];
    char *p = buf;
    p += 5;
    strcpy(p, "x");
}
`, "strcpy", "sizeof(buf) - 5")
}

func TestDefChainDoubleHopIsAliased(t *testing.T) {
	// q's def is p; p and q then share the pointee buf, so the strict
	// ISALIASED test of line 27 refuses. This is the paper's letter: the
	// lines 33-34 recursion helps for array/cast/arithmetic right-hand
	// sides, while pointer-to-pointer copies trip the alias precondition.
	wantFail(t, `
void f(void) {
    char buf[10];
    char *p = buf;
    char *q = p;
    strcpy(q, "x");
}
`, "strcpy", buflen.FailAliased)
}

func TestAddrOfIndexDestination(t *testing.T) {
	// &buf[3]: room shrinks by 3.
	wantSize(t, `
void f(void) {
    char buf[10];
    strcpy(&buf[3], "x");
}
`, "strcpy", "sizeof(buf) - 3")
}

func TestHeapViaCalloc(t *testing.T) {
	wantSize(t, `
void f(void) {
    char *p;
    p = calloc(10, 1);
    strcpy(p, "x");
}
`, "strcpy", "malloc_usable_size(p)")
}

func TestStructArrayMember(t *testing.T) {
	// Lines 36-37: array member sized by sizeof on the member access.
	wantSize(t, `
struct rec { char name[32]; int n; };
void f(void) {
    struct rec r;
    strcpy(r.name, "x");
}
`, "strcpy", "sizeof(r.name)")
}

func TestStructPointerMemberHeap(t *testing.T) {
	// Lines 47-48.
	wantSize(t, `
struct rec { char *buf; };
void f(void) {
    struct rec r;
    r.buf = malloc(64);
    strcpy(r.buf, "x");
}
`, "strcpy", "malloc_usable_size(r.buf)")
}

func TestStructPointerMemberAssignedArray(t *testing.T) {
	// Lines 49-50: recurse on the member's assigned value.
	wantSize(t, `
struct rec { char *buf; };
void f(void) {
    char backing[48];
    struct rec r;
    r.buf = backing;
    strcpy(r.buf, "x");
}
`, "strcpy", "sizeof(backing)")
}

// --- Failure classes (Section IV-B) ---

func TestFailParameterBuffer(t *testing.T) {
	// Class (1): buffer passed as a parameter.
	wantFail(t, `
void f(char *dst) {
    strcpy(dst, "x");
}
`, "strcpy", buflen.FailNoHeapAlloc)
}

func TestFailNoExplicitAllocation(t *testing.T) {
	// Class (1): def comes from an unknown function's result.
	wantFail(t, `
char *get_buffer(void);
void f(void) {
    char *p;
    p = get_buffer();
    strcpy(p, "x");
}
`, "strcpy", buflen.FailNoHeapAlloc)
}

func TestFailAliasedPointer(t *testing.T) {
	// Class (2)-adjacent: two pointers share the target.
	wantFail(t, `
void f(void) {
    char buf[10];
    char *p = buf;
    char *q = buf;
    strcpy(p, "x");
    strcpy(q, "y");
}
`, "strcpy", buflen.FailAliased)
}

func TestFailAliasedStructMember(t *testing.T) {
	// Class (2): one member of the struct aliased makes the aggregate
	// aliased.
	wantFail(t, `
struct rec { char *buf; char *other; };
void f(void) {
    char a[10];
    char b[10];
    struct rec r;
    char *alias;
    r.buf = a;
    r.other = b;
    alias = b;
    strcpy(r.buf, "x");
}
`, "strcpy", buflen.FailAliased)
}

func TestFailArrayOfBuffers(t *testing.T) {
	// Class (3): no shape analysis on arrays of buffers.
	wantFail(t, `
void f(void) {
    char *bufs[4];
    bufs[0] = malloc(10);
    strcpy(bufs[0], "x");
}
`, "strcpy", buflen.FailArrayOfBuffers)
}

func TestFailTernaryAllocation(t *testing.T) {
	// Class (4): ternary with heap allocation in both branches.
	wantFail(t, `
void f(int c) {
    char *p;
    p = c ? malloc(10) : malloc(20);
    strcpy(p, "x");
}
`, "strcpy", buflen.FailTernaryAlloc)
}

func TestFailMultipleDefsAtMerge(t *testing.T) {
	wantFail(t, `
void f(int c) {
    char a[10], b[20];
    char *p;
    if (c) { p = a; } else { p = b; }
    strcpy(p, "x");
}
`, "strcpy", buflen.FailMultipleDefs)
}

func TestFailUninitializedPointer(t *testing.T) {
	wantFail(t, `
void f(void) {
    char *p;
    strcpy(p, "x");
}
`, "strcpy", buflen.FailNoDef)
}

func TestFailStructRedefinedBetweenDefAndUse(t *testing.T) {
	// Lines 42-46: whole struct redefined after the member was set.
	wantFail(t, `
struct rec { char *buf; };
void f(struct rec other) {
    char a[10];
    struct rec r;
    r.buf = a;
    r = other;
    strcpy(r.buf, "x");
}
`, "strcpy", buflen.FailStructRedefined)
}

func TestSizeCTextForms(t *testing.T) {
	tests := []struct {
		sz   buflen.Size
		want string
	}{
		{buflen.Size{Kind: buflen.SizeStatic, BaseText: "buf"}, "sizeof(buf)"},
		{buflen.Size{Kind: buflen.SizeStatic, BaseText: "buf", Adjust: -3}, "sizeof(buf) - 3"},
		{buflen.Size{Kind: buflen.SizeStatic, BaseText: "buf", Adjust: 2}, "sizeof(buf) + 2"},
		{buflen.Size{Kind: buflen.SizeHeap, BaseText: "p"}, "malloc_usable_size(p)"},
		{buflen.Size{}, ""},
	}
	for _, tt := range tests {
		if got := tt.sz.CText(); got != tt.want {
			t.Errorf("CText: got %q, want %q", got, tt.want)
		}
	}
}

func TestConstBytesForStaticArrays(t *testing.T) {
	a, fn, dest := destOfFirst(t, `
void f(void) {
    char dest[100];
    gets(dest);
}
`, "gets")
	sz, fail := a.BufferLength(fn, dest)
	if fail != nil {
		t.Fatal(fail)
	}
	if sz.ConstBytes != 100 {
		t.Fatalf("ConstBytes: got %d, want 100", sz.ConstBytes)
	}
}

func TestFailureErrorStrings(t *testing.T) {
	f := &buflen.Failure{Reason: buflen.FailAliased, Detail: "p"}
	if !strings.Contains(f.Error(), "aliased") {
		t.Fatalf("error text: %q", f.Error())
	}
	f2 := &buflen.Failure{Reason: buflen.FailNoDef}
	if f2.Error() == "" {
		t.Fatal("empty error text")
	}
}
