package slr

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/buflen"
	"repro/internal/cparse"
	"repro/internal/ctoken"
)

// runAll parses src and applies SLR to every candidate.
func runAll(t *testing.T, src string) *FileResult {
	t.Helper()
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := NewTransformer(analysis.New(tu), nil).ApplyAll()
	if err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	return res
}

// reparse checks that the transformed output is still valid C.
func reparse(t *testing.T, src string) {
	t.Helper()
	if _, err := cparse.Parse("out.c", src); err != nil {
		t.Fatalf("transformed output does not parse: %v\n--- output ---\n%s", err, src)
	}
}

func TestStrcpyPaperExample(t *testing.T) {
	// Section II-A4.
	res := runAll(t, `
void example(void) {
    char buf[10];
    char src[100];
    memset(src, 'c', 50);
    src[50] = '\0';
    char *dst = buf;
    strcpy(dst, src);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d, want 1; sites: %+v", res.AppliedCount(), res.Sites)
	}
	if !strings.Contains(res.NewSource, "g_strlcpy(dst, src, sizeof(buf))") {
		t.Fatalf("output missing expected replacement:\n%s", res.NewSource)
	}
	if strings.Contains(res.NewSource, "strcpy(dst, src)") &&
		!strings.Contains(res.NewSource, "g_strlcpy(dst, src") {
		t.Fatal("unsafe call left in place")
	}
	if !res.NeedsGlib {
		t.Fatal("glib requirement not flagged")
	}
	reparse(t, res.NewSource)
}

func TestStrcatLibpngExample(t *testing.T) {
	// Section III-B1, libpng minigzip.c.
	res := runAll(t, `
void f(void) {
    char outfile[30];
    strcat(outfile, ".gz");
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d", res.AppliedCount())
	}
	if !strings.Contains(res.NewSource, `g_strlcat(outfile, ".gz", sizeof(outfile))`) {
		t.Fatalf("output:\n%s", res.NewSource)
	}
	reparse(t, res.NewSource)
}

func TestSprintfSizeInsertedSecond(t *testing.T) {
	// g_snprintf takes the size as its second parameter.
	res := runAll(t, `
void f(int n) {
    char buffer[5];
    sprintf(buffer, "%d", n);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Sites)
	}
	if !strings.Contains(res.NewSource, `g_snprintf(buffer, sizeof(buffer), "%d", n)`) {
		t.Fatalf("output:\n%s", res.NewSource)
	}
	reparse(t, res.NewSource)
}

func TestVsprintf(t *testing.T) {
	res := runAll(t, `
void f(const char *fmt, va_list ap) {
    char msg[128];
    vsprintf(msg, fmt, ap);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Sites)
	}
	if !strings.Contains(res.NewSource, "g_vsnprintf(msg, sizeof(msg), fmt, ap)") {
		t.Fatalf("output:\n%s", res.NewSource)
	}
	reparse(t, res.NewSource)
}

func TestGetsPaperExample(t *testing.T) {
	// Section III-B2: fgets plus newline stripping.
	res := runAll(t, `
void f(void) {
    char dest[64];
    char *result;
    result = gets(dest);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Sites)
	}
	out := res.NewSource
	if !strings.Contains(out, "fgets(dest, sizeof(dest), stdin)") {
		t.Fatalf("fgets rewrite missing:\n%s", out)
	}
	if !strings.Contains(out, `strchr(dest, '\n')`) {
		t.Fatalf("newline strip missing:\n%s", out)
	}
	if !strings.Contains(out, `*check = '\0';`) {
		t.Fatalf("newline null missing:\n%s", out)
	}
	reparse(t, out)
}

func TestGetsFreshCheckName(t *testing.T) {
	// A variable named check already exists: the generated one must not
	// collide.
	res := runAll(t, `
void f(void) {
    char dest[64];
    int check;
    check = 0;
    gets(dest);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d", res.AppliedCount())
	}
	if !strings.Contains(res.NewSource, "char *check_2 = strchr(dest") {
		t.Fatalf("expected fresh name check_2:\n%s", res.NewSource)
	}
	reparse(t, res.NewSource)
}

func TestMemcpyGmpExampleOption1(t *testing.T) {
	// Section III-B3: numlen is used later (null-termination), so the
	// clamp is assigned before the call.
	res := runAll(t, `
void f(char *str) {
    unsigned long numlen;
    char *num;
    numlen = strlen(str);
    num = malloc(numlen + 1);
    memcpy(num, str, numlen);
    num[numlen] = '\0';
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Sites)
	}
	out := res.NewSource
	if !strings.Contains(out, "numlen = malloc_usable_size(num) > numlen ? numlen : malloc_usable_size(num);") {
		t.Fatalf("clamp assignment missing:\n%s", out)
	}
	if !strings.Contains(out, "memcpy(num, str, numlen);") {
		t.Fatalf("memcpy call should stay intact:\n%s", out)
	}
	reparse(t, out)
}

func TestMemcpyOption2InPlace(t *testing.T) {
	// Length not reused: in-place ternary.
	res := runAll(t, `
void f(char *str, unsigned long n) {
    char dst[16];
    memcpy(dst, str, n);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Sites)
	}
	if !strings.Contains(res.NewSource, "memcpy(dst, str, sizeof(dst) > n ? n : sizeof(dst))") {
		t.Fatalf("in-place clamp missing:\n%s", res.NewSource)
	}
	reparse(t, res.NewSource)
}

func TestPreconditionFailureLeavesSourceUntouched(t *testing.T) {
	src := `
void f(char *dst, char *src) {
    strcpy(dst, src);
}
`
	res := runAll(t, src)
	if res.AppliedCount() != 0 {
		t.Fatalf("applied: got %d, want 0", res.AppliedCount())
	}
	if res.NewSource != src {
		t.Fatal("source must be unchanged when preconditions fail")
	}
	if len(res.Sites) != 1 || res.Sites[0].Failure == nil {
		t.Fatalf("failure not reported: %+v", res.Sites)
	}
}

func TestMultipleSitesMixedOutcome(t *testing.T) {
	res := runAll(t, `
void f(char *extern_buf) {
    char a[10];
    char b[20];
    strcpy(a, "one");
    strcpy(extern_buf, "two");
    strcat(b, "three");
}
`)
	if len(res.Sites) != 3 {
		t.Fatalf("sites: got %d, want 3", len(res.Sites))
	}
	if res.AppliedCount() != 2 {
		t.Fatalf("applied: got %d, want 2 (%+v)", res.AppliedCount(), res.Sites)
	}
	out := res.NewSource
	if !strings.Contains(out, `g_strlcpy(a, "one", sizeof(a))`) {
		t.Fatalf("first site not transformed:\n%s", out)
	}
	if !strings.Contains(out, `strcpy(extern_buf, "two")`) {
		t.Fatalf("failing site must stay:\n%s", out)
	}
	if !strings.Contains(out, `g_strlcat(b, "three", sizeof(b))`) {
		t.Fatalf("third site not transformed:\n%s", out)
	}
	reparse(t, out)
}

func TestApplyAtSelectsOneSite(t *testing.T) {
	src := `
void f(void) {
    char a[10];
    char b[10];
    strcpy(a, "one");
    strcpy(b, "two");
}
`
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	// Select the second call by offset.
	off := ctoken.Pos(strings.Index(src, `strcpy(b`))
	res, err := NewTransformer(analysis.New(tu), nil).ApplyAt(off)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d, want 1", res.AppliedCount())
	}
	if !strings.Contains(res.NewSource, `strcpy(a, "one")`) {
		t.Fatal("unselected site must stay untouched")
	}
	if !strings.Contains(res.NewSource, `g_strlcpy(b, "two", sizeof(b))`) {
		t.Fatal("selected site not transformed")
	}
}

func TestHeapDestination(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char *p;
    p = malloc(32);
    strcpy(p, "data");
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Sites)
	}
	if !strings.Contains(res.NewSource, `g_strlcpy(p, "data", malloc_usable_size(p))`) {
		t.Fatalf("output:\n%s", res.NewSource)
	}
	reparse(t, res.NewSource)
}

func TestSizePreservedThroughPointerArithmetic(t *testing.T) {
	res := runAll(t, `
void f(void) {
    char buf[32];
    char *p = buf;
    strcpy(p + 4, "data");
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Sites)
	}
	if !strings.Contains(res.NewSource, `g_strlcpy(p + 4, "data", sizeof(buf) - 4)`) {
		t.Fatalf("output:\n%s", res.NewSource)
	}
	reparse(t, res.NewSource)
}

func TestLibtiffCVEFix(t *testing.T) {
	// Section IV-A2: the LibTIFF tiff2pdf vulnerability. The sprintf can
	// emit more than 5 bytes when a byte is sign-extended; SLR bounds it.
	res := runAll(t, `
void t2p_write_pdf_string(char *pdfstr) {
    char buffer[5];
    int i;
    unsigned long len;
    len = strlen(pdfstr);
    for (i = 0; i < len; i++) {
        if ((pdfstr[i] & 0x80) || (pdfstr[i] == 127) || (pdfstr[i] < 32)) {
            sprintf(buffer, "\\%.3o", pdfstr[i]);
        }
    }
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: got %d (%+v)", res.AppliedCount(), res.Sites)
	}
	if !strings.Contains(res.NewSource, `g_snprintf(buffer, sizeof(buffer), "\\%.3o", pdfstr[i])`) {
		t.Fatalf("output:\n%s", res.NewSource)
	}
	reparse(t, res.NewSource)
}

// TestCatalogConsistency checks SLR's Table I against the default
// backend's targets. The six targets and their replacement names are
// pinned in internal/backend (TestUnsafeFunctionsStableAcrossDialects,
// TestDialectTables).
func TestCatalogConsistency(t *testing.T) {
	if _, ok := backend.Default().Lookup("printf"); ok {
		t.Error("printf is not an SLR target")
	}
	// Every operational rule's unsafe function appears in Table I (gets,
	// strcpy, strcat, sprintf, memcpy directly; vsprintf shares sprintf's
	// row family).
	inTable := make(map[string]bool)
	for _, e := range TableI {
		inTable[e.Unsafe] = true
	}
	for _, name := range backend.Default().UnsafeFunctions() {
		if !inTable[name] && name != "vsprintf" {
			t.Errorf("%s missing from Table I", name)
		}
	}
}

func TestGlibPrototypesParse(t *testing.T) {
	if _, err := cparse.Parse("glib.h", backend.Glib.Prototypes()); err != nil {
		t.Fatalf("prototypes must parse: %v", err)
	}
}

func TestSiteResultPositions(t *testing.T) {
	res := runAll(t, `void f(void) {
    char a[4];
    strcpy(a, "x");
}
`)
	if len(res.Sites) != 1 {
		t.Fatal("expected one site")
	}
	if res.Sites[0].Pos.Line != 3 {
		t.Fatalf("line: got %d, want 3", res.Sites[0].Pos.Line)
	}
}

func TestBracelessIfArmGetsBraced(t *testing.T) {
	res := runAll(t, `
void f(int c) {
    char buf[8];
    if (c)
        gets(buf);
    printf("%s\n", buf);
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d", res.AppliedCount())
	}
	out := res.NewSource
	// The newline-strip statements must stay under the if guard.
	if !strings.Contains(out, "{ fgets(buf, sizeof(buf), stdin);") {
		t.Fatalf("missing opening brace:\n%s", out)
	}
	// The closing brace follows the strip code on its own line.
	idx := strings.Index(out, "if (check) { *check = '\\0'; }")
	if idx < 0 || !strings.Contains(out[idx:], "\n        }") {
		t.Fatalf("missing closing brace:\n%s", out)
	}
	reparse(t, out)
}

func TestBracelessMemcpyClampBraced(t *testing.T) {
	res := runAll(t, `
void f(int c, char *src, unsigned long n) {
    char dst[8];
    unsigned long len = n;
    if (c)
        memcpy(dst, src, len);
    dst[len < 8 ? len : 7] = '\0';
}
`)
	if res.AppliedCount() != 1 {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Sites)
	}
	out := res.NewSource
	if !strings.Contains(out, "{ len = sizeof(dst) > len ? len : sizeof(dst);") {
		t.Fatalf("clamp not braced:\n%s", out)
	}
	if !strings.Contains(out, "memcpy(dst, src, len); }") {
		t.Fatalf("closing brace missing:\n%s", out)
	}
	reparse(t, out)
}

func TestNestedUnsafeCalls(t *testing.T) {
	// strcpy's source argument is itself a strcat call: both sites are
	// candidates. The inner call's value is the source pointer, which
	// g_strlcat would turn into a length, so only the outer site applies.
	res := runAll(t, `
void f(void) {
    char a[32];
    char b[32];
    b[0] = '\0';
    strcpy(a, strcat(b, "suffix"));
}
`)
	if res.AppliedCount() != 1 || res.Sites[1].Failure == nil || res.Sites[1].Failure.Reason != buflen.FailValueUsed {
		t.Fatalf("applied: %d (%+v)", res.AppliedCount(), res.Sites)
	}
	out := res.NewSource
	if !strings.Contains(out, `g_strlcpy(a, strcat(b, "suffix"), sizeof(a))`) {
		t.Fatalf("nested rewrite:\n%s", out)
	}
	reparse(t, out)
}

// TestDeadDefinitionDoesNotReach pins that reaching definitions, like both
// lint oracles, see only code reachable from the entry: the malloc after
// the returns defines p only on dead code, so no defining value reaches
// the strcpy and SLR declines it.
func TestDeadDefinitionDoesNotReach(t *testing.T) {
	src := `void f(int n){ char *p; if (n > 0) return; return; p = malloc(10); strcpy(p, "hi"); }`
	res := runAll(t, src)
	if len(res.Sites) != 1 || res.Sites[0].Applied {
		t.Fatalf("dead strcpy must be declined: %+v", res.Sites)
	}
	if got, want := res.Sites[0].Failure.Error(), "no defining value reaches the use: p"; got != want {
		t.Fatalf("failure: got %q, want %q", got, want)
	}
	if res.NewSource != src {
		t.Fatalf("source changed:\n%s", res.NewSource)
	}
}
