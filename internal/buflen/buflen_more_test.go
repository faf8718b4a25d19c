package buflen_test

import (
	"testing"

	"repro/internal/buflen"
)

func TestAddrOfWholeArray(t *testing.T) {
	wantSize(t, `
void f(void) {
    char buf[24];
    memcpy(&buf, "x", 1);
}
`, "memcpy", "sizeof(buf)")
}

func TestAddrOfStructArrayMember(t *testing.T) {
	wantSize(t, `
struct rec { char name[16]; };
void f(void) {
    struct rec r;
    strcpy(&r.name, "x");
}
`, "strcpy", "sizeof(r.name)")
}

func TestConstIndexWithArithmetic(t *testing.T) {
	// &buf[2*4] reduces through constant folding.
	wantSize(t, `
void f(void) {
    char buf[32];
    strcpy(&buf[2 * 4], "x");
}
`, "strcpy", "sizeof(buf) - 8")
}

func TestEnumConstantIndex(t *testing.T) {
	wantSize(t, `
enum { OFFSET = 3 };
void f(void) {
    char buf[16];
    strcpy(&buf[OFFSET], "x");
}
`, "strcpy", "sizeof(buf) - 3")
}

func TestCharLiteralAdjustment(t *testing.T) {
	// Constant folding handles char constants in pointer arithmetic.
	wantSize(t, `
void f(void) {
    char buf[100];
    char *p = buf;
    strcpy(p + 'A' - 'A' + 2, "x");
}
`, "strcpy", "sizeof(buf) - 2")
}

func TestNumericOnLeftOfPlus(t *testing.T) {
	wantSize(t, `
void f(void) {
    char buf[10];
    strcpy(2 + buf, "x");
}
`, "strcpy", "sizeof(buf) - 2")
}

func TestCompoundSubDefinition(t *testing.T) {
	wantSize(t, `
void f(void) {
    char buf[20];
    char *p = buf;
    p += 8;
    p -= 3;
    strcpy(p, "x");
}
`, "strcpy", "sizeof(buf) - 5")
}

func TestFailNonConstantArithmetic(t *testing.T) {
	wantFail(t, `
void f(int n) {
    char buf[10];
    char *p = buf;
    strcpy(p + n, "x");
}
`, "strcpy", buflen.FailUnsupportedForm)
}

func TestFailCompoundAssignNonConst(t *testing.T) {
	wantFail(t, `
void f(int n) {
    char buf[10];
    char *p = buf;
    p += n;
    strcpy(p, "x");
}
`, "strcpy", buflen.FailUnsupportedForm)
}

func TestFailMulDestination(t *testing.T) {
	wantFail(t, `
void f(int n) {
    char buf[10];
    strcpy(buf * 1, "x");
}
`, "strcpy", buflen.FailUnsupportedForm)
}

func TestFailDerefDestination(t *testing.T) {
	wantFail(t, `
void f(void) {
    char buf[10];
    char *p = buf;
    strcpy(*p, "x");
}
`, "strcpy", buflen.FailUnsupportedForm)
}

func TestTernaryOnlyOneAllocation(t *testing.T) {
	// Only one branch allocates: class is "conditional value", not the
	// double-allocation class.
	wantFail(t, `
void f(int c, char *other) {
    char *p;
    p = c ? malloc(10) : other;
    strcpy(p, "x");
}
`, "strcpy", buflen.FailUnsupportedForm)
}

func TestAssignmentExprDestination(t *testing.T) {
	// Lines 2-4: the destination is itself an assignment expression.
	wantSize(t, `
void f(void) {
    char buf[12];
    char *p;
    strcpy(p = buf, "x");
}
`, "strcpy", "sizeof(buf)")
}

func TestPostfixIncDestination(t *testing.T) {
	// strcpy(p++, ...) writes starting at the pre-increment value.
	wantSize(t, `
void f(void) {
    char buf[12];
    char *p = buf;
    strcpy(p++, "x");
}
`, "strcpy", "sizeof(buf)")
}

func TestDepthLimitTerminates(t *testing.T) {
	// A long definition chain must terminate (depth bound) rather than
	// hang; the chain is deliberately longer than _maxDepth.
	src := "void f(void) {\n    char buf[10];\n    char *p0 = buf;\n"
	for i := 1; i <= 40; i++ {
		src += "    char *p" + itoa(i) + " = p" + itoa(i-1) + ";\n"
	}
	src += "    strcpy(p40, \"x\");\n}\n"
	a, fn, dest := destOfFirst(t, src, "strcpy")
	_, fail := a.BufferLength(fn, dest)
	if fail == nil {
		t.Fatal("deep chains are aliased or depth-limited; either way they fail")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [4]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func TestSizeofInArraysViaConstInt(t *testing.T) {
	// Constant folding resolves sizeof of complete types for index folding.
	wantSize(t, `
void f(void) {
    char buf[64];
    strcpy(&buf[sizeof(int)], "x");
}
`, "strcpy", "sizeof(buf) - 4")
}
