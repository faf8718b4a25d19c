package cinterp

import (
	"strings"
	"testing"
)

func TestPutsAndFprintf(t *testing.T) {
	res := run(t, `
int main(void) {
    puts("line one");
    fprintf(stderr, "err %d\n", 2);
    fprintf(stdout, "out\n");
    return 0;
}
`, "main")
	if res.Stdout != "line one\nerr 2\nout\n" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestCallocZeroesAndGStrlcat(t *testing.T) {
	res := run(t, `
int main(void) {
    char *p = calloc(4, 4);
    printf("%d|%d|", p[15], malloc_usable_size(p));
    char buf[8];
    buf[0] = 'a';
    buf[1] = '\0';
    unsigned long full = g_strlcat(buf, "bcdefghij", sizeof(buf));
    printf("%s|%d", buf, full);
    return 0;
}
`, "main")
	if res.Stdout != "0|16|abcdefg|10" {
		t.Fatalf("got %q", res.Stdout)
	}
	if res.HasViolations() {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestAbortReturnsExitCode(t *testing.T) {
	res := run(t, `
int main(void) {
    abort();
    return 0;
}
`, "main")
	if res.Return != 134 {
		t.Fatalf("return: %d", res.Return)
	}
}

func TestScanfFopenStubs(t *testing.T) {
	res := run(t, `
int main(void) {
    int x = 5;
    int n = scanf("%d", &x);
    void *f = fopen("no.txt", "r");
    fclose(f);
    fwrite("x", 1, 1, f);
    printf("%d|%d|%d", n, x, f == 0);
    return 0;
}
`, "main")
	if res.Stdout != "0|5|1" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestSwitchDefaultFirst(t *testing.T) {
	res := run(t, `
int main(void) {
    switch (9) {
    default:
        printf("d");
        break;
    case 1:
        printf("1");
    }
    switch (1) {
    default:
        printf("d");
        break;
    case 1:
        printf("1");
    }
    switch (2) case 2: printf("u");
    switch (3) case 2: printf("x");
    return 0;
}
`, "main")
	if res.Stdout != "d1u" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestNestedStructInitializer(t *testing.T) {
	res := run(t, `
struct inner { int a; int b; };
struct outer { struct inner in; int c; };
int main(void) {
    struct outer o = { { 1, 2 }, 3 };
    int arr2[2][2] = { {10, 20}, {30, 40} };
    printf("%d%d%d|%d%d", o.in.a, o.in.b, o.c, arr2[0][1], arr2[1][0]);
    return 0;
}
`, "main")
	if res.Stdout != "123|2030" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestGlobalArrayOfStrings(t *testing.T) {
	res := run(t, `
char greeting[8] = "hi";
int nums[3] = {7, 8, 9};
int main(void) {
    printf("%s|%d%d%d", greeting, nums[0], nums[1], nums[2]);
    return 0;
}
`, "main")
	if res.Stdout != "hi|789" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestMemcmpOrdering(t *testing.T) {
	res := run(t, `
int main(void) {
    printf("%d%d%d", memcmp("abc", "abd", 3) < 0, memcmp("abd", "abc", 3) > 0,
        memcmp("abc", "abc", 3) == 0);
    return 0;
}
`, "main")
	if res.Stdout != "111" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestUnsignedFormatsWithLengths(t *testing.T) {
	res := run(t, `
int main(void) {
    long big = -1;
    printf("[%lu]", big);
    printf("[%u]", -1);
    printf("[%hhu]", 300);
    printf("[%hu]", 70000);
    return 0;
}
`, "main")
	want := "[18446744073709551615][4294967295][44][4464]"
	if res.Stdout != want {
		t.Fatalf("got %q, want %q", res.Stdout, want)
	}
}

func TestAddressOfArrayElementThroughCast(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[8];
    char *p;
    buf[3] = 'q';
    p = (char*)&buf[3];
    printf("%c", *p);
    return 0;
}
`, "main")
	if res.Stdout != "q" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestNegativeModAndShift(t *testing.T) {
	res := run(t, `
int main(void) {
    int a = -7;
    printf("%d|%d|%d", a % 3, a >> 1, a / 2);
    return 0;
}
`, "main")
	if res.Stdout != "-1|-4|-3" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestFloatComparisonsAndMixed(t *testing.T) {
	res := run(t, `
int main(void) {
    double d = 1.5;
    printf("%d%d%d%d", d > 1, d < 2, d == 1.5, d != 1.5);
    printf("|%d", (int)(d * 4.0));
    return 0;
}
`, "main")
	if res.Stdout != "1110|6" {
		t.Fatalf("got %q", res.Stdout)
	}
}

func TestViolationStringAndKinds(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[2];
    strcpy(buf, "toolong");
    return 0;
}
`, "main")
	if len(res.Violations) == 0 {
		t.Fatal("expected violation")
	}
	s := res.Violations[0].String()
	if !strings.Contains(s, "CWE-121") || !strings.Contains(s, "stack") {
		t.Fatalf("violation string: %s", s)
	}
	for _, k := range []ObjKind{ObjGlobal, ObjStack, ObjHeap, ObjString, ObjInvalid} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestStringIndexWithNegativeCheckClamped(t *testing.T) {
	// Reading below an object yields zero plus an event; output must stay
	// deterministic.
	res := run(t, `
int main(void) {
    char buf[4];
    int idx = -2;
    buf[0] = 'a';
    printf("%d", buf[idx]);
    return 0;
}
`, "main")
	if res.Stdout != "0" {
		t.Fatalf("got %q", res.Stdout)
	}
	if byCWE(res)[127] == 0 {
		t.Fatalf("expected CWE-127: %v", res.Violations)
	}
}

func TestRunTwiceIndependent(t *testing.T) {
	unit, err := parseChecked(t, `
int counter = 0;
int main(void) {
    counter++;
    printf("%d", counter);
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
	r1, err := in.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := in.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	// Globals persist across runs; output buffers reset.
	if r1.Stdout != "1" || r2.Stdout != "2" {
		t.Fatalf("got %q then %q", r1.Stdout, r2.Stdout)
	}
}

func TestMissingEntryError(t *testing.T) {
	unit, err := parseChecked(t, "int x;")
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(unit, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("main"); err == nil {
		t.Fatal("missing entry must error")
	}
}

func TestCallUndefinedFunctionErrors(t *testing.T) {
	_, err := loadAndRun("t.c", `
int main(void) {
    totally_undefined();
    return 0;
}
`, "main", nil, Limits{})
	if err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Fatalf("got %v", err)
	}
}

func TestArrayOfStructs(t *testing.T) {
	res := run(t, `
struct item { int id; char tag[4]; };
int main(void) {
    struct item items[3];
    int i;
    for (i = 0; i < 3; i++) {
        items[i].id = i * 10;
        items[i].tag[0] = 'a' + i;
        items[i].tag[1] = '\0';
    }
    struct item *p = &items[1];
    printf("%d %s %d %s", items[2].id, items[0].tag, p->id, p->tag);
    return 0;
}
`, "main")
	if res.Stdout != "20 a 10 b" {
		t.Fatalf("got %q", res.Stdout)
	}
	if res.HasViolations() {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestStructParamByValue(t *testing.T) {
	res := run(t, `
struct pair { int a; int b; };
int sum(struct pair p) {
    p.a = 99;
    return p.a + p.b;
}
int main(void) {
    struct pair v;
    v.a = 1;
    v.b = 2;
    int s = sum(v);
    printf("%d %d", s, v.a);
    return 0;
}
`, "main")
	if res.Stdout != "101 1" {
		t.Fatalf("struct params are by value: got %q", res.Stdout)
	}
}
