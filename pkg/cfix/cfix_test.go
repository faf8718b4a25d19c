package cfix

import (
	"context"
	"strings"
	"testing"
)

const vulnerable = `
void copy_input(void) {
    char buf[10];
    char src[100];
    memset(src, 'c', 50);
    src[50] = '\0';
    char *dst = buf;
    strcpy(dst, src);
    printf("%s\n", buf);
}

int main(void) {
    copy_input();
    return 0;
}
`

func TestFixAndRunEndToEnd(t *testing.T) {
	// 1. The original program overflows.
	pre, err := Run("v.c", vulnerable, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Safe() {
		t.Fatal("original program should overflow")
	}

	// 2. Fix it.
	rep, err := Fix("v.c", vulnerable, Options{EmitSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed() {
		t.Fatal("fix should change the program")
	}
	if !strings.Contains(rep.Source, "g_strlcpy") {
		t.Fatalf("expected SLR rewrite:\n%s", rep.Source)
	}

	// 3. The fixed program is clean.
	post, err := Run("v.c", rep.Source, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !post.Safe() {
		t.Fatalf("fixed program still has violations: %v", post.Violations)
	}
}

func TestFixSummaryReadable(t *testing.T) {
	rep, err := Fix("v.c", vulnerable, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	if !strings.Contains(s, "SLR") || !strings.Contains(s, "STR") {
		t.Fatalf("summary: %s", s)
	}
}

func TestFixSelectOffset(t *testing.T) {
	src := `
void f(void) {
    char a[8];
    char b[8];
    strcpy(a, "1");
    strcpy(b, "2");
}
`
	off := strings.Index(src, `strcpy(b`)
	rep, err := Fix("s.c", src, Options{SelectOffset: off, DisableSTR: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.Source, `g_strlcpy(a`) {
		t.Fatal("unselected site must stay")
	}
	if !strings.Contains(rep.Source, `g_strlcpy(b`) {
		t.Fatal("selected site must change")
	}
}

func TestRunReportsCWE(t *testing.T) {
	res, err := Run("v.c", vulnerable, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.CWE == 121 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected CWE-121, got %v", res.Violations)
	}
	if res.Steps == 0 {
		t.Fatal("steps should be counted")
	}
}

func TestFixDisableBoth(t *testing.T) {
	rep, err := Fix("v.c", vulnerable, Options{DisableSLR: true, DisableSTR: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed() || rep.Source != vulnerable {
		t.Fatal("nothing should change with both transformations disabled")
	}
}

// FuzzFix: Fix must never panic on arbitrary input — it either transforms
// or returns an error, and any transformed output must re-parse.
func FuzzFix(f *testing.F) {
	f.Add(vulnerable)
	f.Add("void f(void){ char b[4]; gets(b); }")
	f.Add("char *p = \"x\"; int g(")
	f.Add("")
	f.Add("void f(void){ volatile char v[4], w = 0; v[0] = 'd'; }")
	f.Add("void f(void){ const char a[8] = \"abc\", *const q = 0; q = malloc(8); }")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 || strings.Count(src, "(") > 100 {
			t.Skip()
		}
		rep, err := Fix("fuzz.c", src, Options{EmitSupport: true})
		if err != nil {
			return
		}
		if _, err := Run("fuzz.c", rep.Source, "no_entry_expected", nil); err == nil {
			// Fine: a function named no_entry_expected actually existed.
			return
		}
	})
}

func TestVerifyPublicAPI(t *testing.T) {
	src := `
void demo_good(void) {
    char buf[32];
    strcpy(buf, "fits");
    printf("%s\n", buf);
}
void demo_bad(void) {
    char buf[4];
    strcpy(buf, "does not fit at all");
    printf("%s\n", buf);
}
`
	v, err := Verify("demo.c", src, "demo_good", "demo_bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.VulnDetected || !v.Fixed || !v.Preserved {
		t.Fatalf("verdict: detected=%v fixed=%v preserved=%v",
			v.VulnDetected, v.Fixed, v.Preserved)
	}
}

func TestSupportSourceParses(t *testing.T) {
	sup := SupportSource()
	if !strings.Contains(sup, "stralloc_ready") || !strings.Contains(sup, "g_strlcpy") {
		t.Fatal("support source incomplete")
	}
	if _, err := Run("support.c", sup+"\nint main(void){ return 0; }", "main", nil); err != nil {
		t.Fatalf("support source must run standalone: %v", err)
	}
}

func TestAnalyzeStaticOracle(t *testing.T) {
	rep, err := Analyze(context.Background(), "v.c", vulnerable, Options{})
	if err != nil {
		t.Fatal(err)
	}
	findings := rep.Findings
	var hit *Finding
	for i := range findings {
		if findings[i].CWE == 121 && findings[i].Severity == SevDefinite {
			hit = &findings[i]
		}
	}
	if hit == nil {
		t.Fatalf("definite CWE-121 expected, got %v", findings)
	}
	if hit.Function != "copy_input" {
		t.Fatalf("finding in %s, want copy_input", hit.Function)
	}
	if !strings.Contains(hit.SuggestedFix, "g_strlcpy") {
		t.Fatalf("suggested fix should name the SLR replacement: %q", hit.SuggestedFix)
	}
	if CWEName(121) != "Stack-based Buffer Overflow" {
		t.Fatalf("CWEName: %q", CWEName(121))
	}
}

func TestFixLintOptionRanksSummary(t *testing.T) {
	rep, err := Fix("v.c", vulnerable, Options{Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("findings expected with Lint")
	}
	if !strings.Contains(rep.Summary(), "[CWE-121 definite:") {
		t.Fatalf("summary should carry the verdict:\n%s", rep.Summary())
	}
}

// TestRequestKeyIsLintCacheKey: a lint request's routing key is the key
// Analyze caches its report under, whatever repair options the request
// carries, since a lint run ignores them.
func TestRequestKeyIsLintCacheKey(t *testing.T) {
	rc, err := NewResultCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Checks: "all", Cache: rc}
	if _, err := Analyze(context.Background(), "k.c", vulnerable, opts); err != nil {
		t.Fatal(err)
	}
	for _, ro := range []RequestOptions{
		{Checks: "all"},
		{Checks: "all", DisableSLR: true, EmitSupport: true},
		{Checks: "buf,int", Backend: "glib", Lint: true},
		{Checks: "all", KeepGoing: true},
	} {
		if _, ok := rc.c.Get(RequestKey("lint", "k.c", vulnerable, ro)); !ok {
			t.Errorf("RequestKey(lint, %+v) is not the key Analyze cached under", ro)
		}
	}
	if _, ok := rc.c.Get(RequestKey("fix", "k.c", vulnerable, RequestOptions{Checks: "all"})); ok {
		t.Error("a fix request's key finds the lint report")
	}
}
