package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cparse"
	"repro/internal/overflow"
	"repro/internal/slr"
)

const sample = `
void f(void) {
    char buf[16];
    char *p;
    strcpy(buf, "hello");
    p = malloc(8);
    p[0] = 'x';
}
`

func TestFixBoth(t *testing.T) {
	rep, err := Fix(context.Background(), "s.c", sample, Options{SelectOffset: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLR == nil || rep.STR == nil {
		t.Fatal("both transformation reports expected")
	}
	if !rep.Changed() {
		t.Fatal("program should change")
	}
	if !rep.NeedsGlib || !rep.NeedsStralloc {
		t.Fatalf("support requirements: glib=%v stralloc=%v", rep.NeedsGlib, rep.NeedsStralloc)
	}
	if !strings.Contains(rep.Summary(), "SLR: 1/1") {
		t.Fatalf("summary:\n%s", rep.Summary())
	}
}

func TestFixEmitSupportSelfContained(t *testing.T) {
	rep, err := Fix(context.Background(), "s.c", sample, Options{SelectOffset: -1, EmitSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Source, "typedef struct stralloc") {
		t.Fatal("stralloc support missing")
	}
	if !strings.Contains(rep.Source, "g_strlcpy") {
		t.Fatal("glib prototypes missing")
	}
	// The emitted unit must parse standalone.
	if _, err := cparse.Parse("out.c", rep.Source); err != nil {
		t.Fatalf("self-contained output must parse: %v", err)
	}
}

func TestFixDisableSLR(t *testing.T) {
	rep, err := Fix(context.Background(), "s.c", sample, Options{DisableSLR: true, SelectOffset: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLR != nil {
		t.Fatal("SLR report must be nil when disabled")
	}
	if strings.Contains(rep.Source, "g_strlcpy") {
		t.Fatal("SLR must not have run")
	}
}

func TestFixSelectedSiteSkipsSTR(t *testing.T) {
	off := strings.Index(sample, "strcpy")
	rep, err := Fix(context.Background(), "s.c", sample, Options{SelectOffset: off})
	if err != nil {
		t.Fatal(err)
	}
	// Case-by-case mode is an SLR quick-fix; STR batch does not run.
	if rep.STR != nil {
		t.Fatal("STR must not run in single-site mode")
	}
	if !strings.Contains(rep.Source, "g_strlcpy(buf") {
		t.Fatalf("selected site not fixed:\n%s", rep.Source)
	}
}

func TestFixParseErrorWrapped(t *testing.T) {
	_, err := Fix(context.Background(), "bad.c", "void f( {", Options{SelectOffset: -1})
	if err == nil || !strings.Contains(err.Error(), "core: parse") {
		t.Fatalf("error: %v", err)
	}
}

func TestFixLintAttachesRisk(t *testing.T) {
	src := `
void f(void) {
    char buf[8];
    char src[40];
    memset(src, 'A', 30);
    src[30] = '\0';
    strcpy(buf, src);
}
int main(void) { f(); return 0; }
`
	rep, err := Fix(context.Background(), "s.c", src, Options{SelectOffset: -1, Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("lint findings expected")
	}
	if rep.SLR == nil {
		t.Fatal("SLR report expected")
	}
	var strcpySite *slr.SiteResult
	for i := range rep.SLR.Sites {
		if rep.SLR.Sites[i].Function == "strcpy" {
			strcpySite = &rep.SLR.Sites[i]
		}
	}
	if strcpySite == nil || strcpySite.Risk == nil {
		t.Fatalf("strcpy site should carry a risk verdict: %+v", rep.SLR.Sites)
	}
	if strcpySite.Risk.CWE != 121 || strcpySite.Risk.Severity != overflow.SevDefinite {
		t.Fatalf("risk: got CWE-%d %s", strcpySite.Risk.CWE, strcpySite.Risk.Severity)
	}
	// Ranked order puts the definite site first, and the summary justifies
	// the repair with the verdict.
	ranked := rep.SLR.RankedSites()
	if len(ranked) == 0 || ranked[0].Risk == nil {
		t.Fatalf("ranked sites should lead with the flagged site: %+v", ranked)
	}
	if s := rep.Summary(); !strings.Contains(s, "[CWE-121 definite:") {
		t.Fatalf("summary should justify with the verdict:\n%s", s)
	}
	// STR candidates in the same function match by (function, name).
	if rep.STR != nil {
		for _, v := range rep.STR.Vars {
			if v.Name == "buf" && v.Func == "f" && v.Risk == nil {
				t.Fatalf("STR candidate buf should carry a risk verdict: %+v", v)
			}
		}
	}
}

func TestFixWithoutLintHasNoFindings(t *testing.T) {
	rep, err := Fix(context.Background(), "s.c", sample, Options{SelectOffset: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("findings without Lint: %v", rep.Findings)
	}
	for _, s := range rep.SLR.Sites {
		if s.Risk != nil {
			t.Fatalf("risk without Lint: %+v", s)
		}
	}
}

// TestDeadDefinitionPipeline pins how both transformations treat a
// definition that reaches a use only through dead code: reaching
// definitions see only code reachable from the entry, so SLR declines the
// dead strcpy (no defining value reaches p) and STR then replaces p.
func TestDeadDefinitionPipeline(t *testing.T) {
	src := `void f(int n){ char *p; if (n > 0) return; return; p = malloc(10); strcpy(p, "hi"); }`
	rep, err := Fix(context.Background(), "dead.c", src, Options{SelectOffset: -1})
	if err != nil {
		t.Fatal(err)
	}
	sites := rep.SLR.Sites
	if len(sites) != 1 || sites[0].Applied || sites[0].Failure.Error() != "no defining value reaches the use: p" {
		t.Fatalf("SLR must decline the dead strcpy: %+v", sites)
	}
	vars := rep.STR.Vars
	if len(vars) != 1 || vars[0].Name != "p" || !vars[0].Applied {
		t.Fatalf("STR must replace p: %+v", vars)
	}
}
