package cinterp

import (
	"strings"
	"testing"
)

func TestLibcStringSearch(t *testing.T) {
	res := run(t, `
int main(void) {
    char s[32];
    char *p;
    strcpy(s, "abcabc");
    p = strchr(s, 'b');
    printf("[%s]", p);
    p = strrchr(s, 'b');
    printf("[%s]", p);
    p = strstr(s, "cab");
    printf("[%s]", p);
    p = strchr(s, 'z');
    if (p == 0) { printf("[null]"); }
    return 0;
}
`, "main")
	want := "[bcabc][bc][cabc][null]"
	if res.Stdout != want {
		t.Fatalf("got %q, want %q", res.Stdout, want)
	}
}

func TestLibcStrncpyStrncat(t *testing.T) {
	res := run(t, `
int main(void) {
    char a[16];
    char b[16];
    strncpy(a, "hello world", 5);
    a[5] = '\0';
    strcpy(b, "x");
    strncat(b, "abcdef", 3);
    printf("%s|%s", a, b);
    return 0;
}
`, "main")
	if res.Stdout != "hello|xabc" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestLibcStrdupAndCompare(t *testing.T) {
	res := run(t, `
int main(void) {
    char *d = strdup("copy me");
    printf("%s|%d|%d", d, strcmp(d, "copy me"), strncmp("abc", "abd", 2));
    free(d);
    return 0;
}
`, "main")
	if res.Stdout != "copy me|0|0" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestLibcMemoryOps(t *testing.T) {
	res := run(t, `
int main(void) {
    char a[8];
    char b[8];
    memset(a, 'z', 7);
    a[7] = '\0';
    memmove(b, a, 8);
    printf("%s|%d", b, memcmp(a, b, 8));
    return 0;
}
`, "main")
	if res.Stdout != "zzzzzzz|0" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestLibcAtoiAndRand(t *testing.T) {
	res := run(t, `
int main(void) {
    int a = atoi("  -42abc");
    int b = atoi("17");
    srand(7);
    int r1 = rand();
    srand(7);
    int r2 = rand();
    printf("%d|%d|%d", a, b, r1 == r2);
    return 0;
}
`, "main")
	if res.Stdout != "-42|17|1" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestGetenv(t *testing.T) {
	unit, err := parseChecked(t, `
int main(void) {
    char *home = getenv("HOME");
    char *nope = getenv("NOPE");
    printf("%s|%d", home, nope == 0);
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(unit, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	in.env = map[string]string{"HOME": "/home/user"}
	res, err := in.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "/home/user|1" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestRealloc(t *testing.T) {
	res := run(t, `
int main(void) {
    char *p = malloc(4);
    strcpy(p, "abc");
    p = realloc(p, 16);
    strcat(p, "defgh");
    printf("%s|%d", p, malloc_usable_size(p));
    return 0;
}
`, "main")
	if res.Stdout != "abcdefgh|16" {
		t.Fatalf("got %q", res.Stdout)
	}
	if res.HasViolations() {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	res := run(t, `
int main(void) {
    char *p = malloc(4);
    free(p);
    free(p);
    return 0;
}
`, "main")
	if byCWE(res)[415] == 0 {
		t.Fatalf("expected CWE-415 double free, got %v", res.Violations)
	}
}

func TestWriteToStringLiteralDetected(t *testing.T) {
	res := run(t, `
int main(void) {
    char *p = "readonly";
    p[0] = 'X';
    return 0;
}
`, "main")
	if !res.HasViolations() {
		t.Fatal("write to string literal must be flagged")
	}
}

func TestFloatsEndToEnd(t *testing.T) {
	res := run(t, `
int main(void) {
    double d = 2.5;
    float f = 1.25;
    d = d * 2.0 + f;
    printf("%f|", d);
    printf("%.1f", 3.14159);
    return 0;
}
`, "main")
	if res.Stdout != "6.250000|3.1" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestCompoundAssignOperators(t *testing.T) {
	res := run(t, `
int main(void) {
    int x = 100;
    x += 5;
    x -= 1;
    x *= 2;
    x /= 4;
    x %= 45;
    x <<= 2;
    x >>= 1;
    x &= 0xFE;
    x |= 1;
    x ^= 2;
    printf("%d", x);
    return 0;
}
`, "main")
	// 100+5=105; -1=104; *2=208; /4=52; %45=7; <<2=28; >>1=14; &0xFE=14; |1=15; ^2=13
	if res.Stdout != "13" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestDivisionByZeroFlagged(t *testing.T) {
	res := run(t, `
int main(void) {
    int a = 5;
    int b = 0;
    int c = a / b;
    printf("%d", c);
    return 0;
}
`, "main")
	if byCWE(res)[369] == 0 {
		t.Fatalf("expected CWE-369, got %v", res.Violations)
	}
	if res.Stdout != "0" {
		t.Fatalf("division by zero clamps to 0, got %q", res.Stdout)
	}
}

func TestFormatWidthPrecisionCorners(t *testing.T) {
	res := run(t, `
int main(void) {
    printf("[%8.3s]", "abcdef");
    printf("[%-6d]", -42);
    printf("[%+d]", 7);
    printf("[%#x][%#o]", 255, 9);
    printf("[%hd]", 70000);
    printf("[%p]", (void*)0);
    return 0;
}
`, "main")
	want := "[     abc][-42   ][+7][0xff][011][4464][(nil)]"
	if res.Stdout != want {
		t.Fatalf("got %q, want %q", res.Stdout, want)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	_, err := loadAndRun("t.c", `
int down(int n) { return down(n + 1); }
int main(void) { return down(0); }
`, "main", nil, Limits{MaxFrames: 50})
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("expected depth limit error, got %v", err)
	}
}

func TestHeapLimit(t *testing.T) {
	_, err := loadAndRun("t.c", `
int main(void) {
    for (;;) { malloc(1024); }
    return 0;
}
`, "main", nil, Limits{MaxHeap: 1 << 16})
	if err == nil || !strings.Contains(err.Error(), "heap limit") {
		t.Fatalf("expected heap limit error, got %v", err)
	}
}

func TestStringLiteralConcatSemantics(t *testing.T) {
	res := run(t, `
int main(void) {
    printf("abc" "def" "\n");
    return 0;
}
`, "main")
	if res.Stdout != "abcdef\n" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestPointerComparisonsAndNull(t *testing.T) {
	res := run(t, `
int main(void) {
    char a[4];
    char *p = a;
    char *q = a + 2;
    printf("%d%d%d%d", p < q, q > p, p == a, p != q);
    p = 0;
    printf("%d", p == 0);
    return 0;
}
`, "main")
	if res.Stdout != "11111" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestCastsTruncate(t *testing.T) {
	res := run(t, `
int main(void) {
    int big = 0x1234;
    char c = (char)big;
    unsigned char uc = (unsigned char)big;
    short s = (short)0x12345;
    printf("%d|%d|%d", c, uc, s);
    return 0;
}
`, "main")
	if res.Stdout != "52|52|9029" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestCommaOperatorEvaluation(t *testing.T) {
	res := run(t, `
int main(void) {
    int a = 0;
    int b;
    b = (a = 5, a + 2);
    printf("%d|%d", a, b);
    return 0;
}
`, "main")
	if res.Stdout != "5|7" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestReturnValuePropagation(t *testing.T) {
	res := run(t, `
char *pick(char *a, char *b, int which) {
    if (which) { return a; }
    return b;
}
int main(void) {
    printf("%s", pick("first", "second", 0));
    return 0;
}
`, "main")
	if res.Stdout != "second" {
		t.Fatalf("got %q", res.Stdout)
	}
}
