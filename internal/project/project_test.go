package project

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/overflow"
)

// callerC passes a 10-byte stack buffer and a count of 100 to a function
// defined in another file. Nothing in this file is wrong by itself.
const callerC = `void fill(char *p, int n);
int main(void) {
    char buf[10];
    fill(buf, 100);
    return 0;
}
`

// calleeC writes n bytes through p. Analyzed alone, p's target size is
// unknown, so the oracle proves nothing. With the caller's seed (size
// 10, n = 100) the write overflows.
const calleeC = `void fill(char *p, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        p[i] = 'x';
    }
}
`

func lintOpts() core.Options {
	return core.Options{DisableSLR: true, DisableSTR: true, Lint: true}
}

// TestCrossTUFinding is the acceptance demo: a two-TU project exhibits
// an interprocedural overflow that single-TU analysis misses, and
// project mode finds it via transported call seeds.
func TestCrossTUFinding(t *testing.T) {
	// Single-TU baseline: the callee alone is unprovable.
	solo, err := core.Analyze(context.Background(), "b.c", calleeC, lintOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range solo {
		if f.Function == "fill" && f.Severity >= overflow.SevPossible && f.CWE == 121 {
			t.Fatalf("single-TU analysis already flags fill: %v", f)
		}
	}

	p := InMemory(map[string]string{"a.c": callerC, "b.c": calleeC}, nil, nil)
	rep, err := p.Analyze(context.Background(), lintOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Edges) != 1 {
		t.Fatalf("edges = %+v, want one a.c->b.c link", rep.Edges)
	}
	e := rep.Edges[0]
	if e.CallerFile != "a.c" || e.CalleeFile != "b.c" || e.Callee != "fill" {
		t.Fatalf("edge = %+v", e)
	}
	var hit *overflow.Finding
	for i := range rep.Files {
		out := rep.Files[i]
		if out.Err != "" {
			t.Fatalf("%s failed: %s", out.File, out.Err)
		}
		if out.File != "b.c" {
			continue
		}
		for j := range out.Fix.Findings {
			f := &out.Fix.Findings[j]
			if f.Function == "fill" && !f.Degraded {
				hit = f
			}
		}
	}
	if hit == nil {
		t.Fatal("project mode did not surface the cross-TU overflow in b.c")
	}
	found := false
	for _, c := range hit.Contexts {
		if strings.Contains(c, "[extern]") {
			found = true
		}
	}
	if !found {
		t.Fatalf("finding lacks an extern-seeded context: %+v", hit)
	}
}

// TestProjectFixEditsOriginal: a repair computed on preprocessed text
// lands in the user's original file — the macro stays a macro.
func TestProjectFixEditsOriginal(t *testing.T) {
	files := map[string]string{
		"m.c": "#include \"n.h\"\n" +
			"int main(void) {\n" +
			"    char b[N];\n" +
			"    strcpy(b, \"hi\");\n" +
			"    return 0;\n" +
			"}\n",
	}
	headers := map[string]string{
		"n.h": "#define N 16\nchar *strcpy(char *, const char *);\nunsigned long strlen(const char *);\n",
	}
	p := InMemory(files, headers, nil)
	rep, err := p.Fix(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Files[0]
	if out.Err != "" {
		t.Fatalf("fix failed: %s", out.Err)
	}
	src := out.Fix.Source
	if !strings.Contains(src, "#include \"n.h\"") {
		t.Fatalf("include directive lost:\n%s", src)
	}
	if !strings.Contains(src, "char b[N];") {
		t.Fatalf("macro use in declaration was expanded away:\n%s", src)
	}
	if strings.Contains(src, "strcpy(b, \"hi\")") {
		t.Fatalf("unsafe call not repaired:\n%s", src)
	}
	if !strings.Contains(src, "g_strlcpy") {
		t.Fatalf("expected glib repair in output:\n%s", src)
	}
}

// TestProjectFixDeclinesMacroBody: when the unsafe call itself lives
// inside a macro expansion, the repair is declined with an explicit
// reason and the original text survives byte-for-byte.
func TestProjectFixDeclinesMacroBody(t *testing.T) {
	src := "#define COPY(d, s) strcpy(d, s)\n" +
		"char *strcpy(char *, const char *);\n" +
		"int main(void) {\n" +
		"    char b[8];\n" +
		"    COPY(b, \"hi\");\n" +
		"    return 0;\n" +
		"}\n"
	p := InMemory(map[string]string{"c.c": src}, nil, nil)
	rep, err := p.Fix(context.Background(), core.Options{DisableSTR: true})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Files[0]
	if out.Err != "" {
		t.Fatalf("fix failed: %s", out.Err)
	}
	if out.Fix.Source != src {
		t.Fatalf("macro-expanded site was edited anyway:\n%s", out.Fix.Source)
	}
	declined := false
	for _, s := range out.Fix.SLR.Sites {
		if s.Applied {
			t.Fatalf("site reported applied: %+v", s)
		}
		if s.Failure != nil && strings.Contains(s.Failure.Detail, "COPY") {
			declined = true
		}
	}
	if !declined {
		t.Fatalf("no site declined with the macro named: %+v", out.Fix.SLR.Sites)
	}
}

// TestProjectFixDeclinedSiteNeedsNoLib: the link requirement comes from
// the sites that stay applied. A strcpy declined inside a macro body
// needs no glib, so when the only applied repair is the memcpy clamp
// (plain C), neither report asks for the library and EmitSupport
// prepends no glib prototypes.
func TestProjectFixDeclinedSiteNeedsNoLib(t *testing.T) {
	src := "#define COPY(d, s) strcpy(d, s)\n" +
		"char *strcpy(char *, const char *);\n" +
		"void *memcpy(void *, const void *, unsigned long);\n" +
		"int main(void) {\n" +
		"    char b[8];\n" +
		"    char c[8];\n" +
		"    COPY(b, \"hi\");\n" +
		"    memcpy(c, \"abcdefghijkl\", 12);\n" +
		"    return 0;\n" +
		"}\n"
	p := InMemory(map[string]string{"c.c": src}, nil, nil)
	rep, err := p.Fix(context.Background(), core.Options{DisableSTR: true, EmitSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Files[0]
	if out.Err != "" {
		t.Fatalf("fix failed: %s", out.Err)
	}
	for _, s := range out.Fix.SLR.Sites {
		if s.Applied != (s.Function == "memcpy") {
			t.Fatalf("want only the memcpy clamp applied, got %+v", out.Fix.SLR.Sites)
		}
	}
	if out.Fix.NeedsGlib {
		t.Fatal("declined strcpy still requires glib")
	}
	if strings.Contains(out.Fix.Source, "g_strlcpy") {
		t.Fatalf("glib prototypes emitted for a unit that calls no glib function:\n%s", out.Fix.Source)
	}
}

// TestCompileCommandsParsing covers the flag translation and shell
// splitting used by database loading.
func TestCompileCommandsParsing(t *testing.T) {
	args := splitCommand(`cc -I include -DN=4 -D'F(x)' -I"sub dir" -c a.c -o a.o`)
	opts := argsToCppOptions(args, "/proj")
	if len(opts.IncludeDirs) != 2 || opts.IncludeDirs[0] != "/proj/include" || opts.IncludeDirs[1] != "/proj/sub dir" {
		t.Fatalf("include dirs = %+v", opts.IncludeDirs)
	}
	if opts.Defines["N"] != "4" {
		t.Fatalf("defines = %+v", opts.Defines)
	}
	if _, ok := opts.Defines["F(x)"]; !ok {
		t.Fatalf("quoted define lost: %+v", opts.Defines)
	}
}

// passProject is a three-unit project with one cross-file pair: a.c
// calls fill in b.c and has one strcpy SLR repairs, c.c is unrelated.
func passProject() *Project {
	a := "char *strcpy(char *, const char *);\n" +
		"void name(void) {\n    char n[16];\n    strcpy(n, \"hi\");\n}\n" + callerC
	c := "int twice(int x) {\n    return x + x;\n}\n"
	return InMemory(map[string]string{"a.c": a, "b.c": calleeC, "c.c": c}, nil, nil)
}

// TestProjectPassCount pins how often project mode parses: once per unit
// in the scan round, once more per unit that receives seeds, and once
// more per unit SLR changed (STR's parse of the repaired text). Every
// parse follows its own preprocess, so this also counts preprocessor
// passes.
func TestProjectPassCount(t *testing.T) {
	p := passProject()
	var rep *Report
	fixParses := parseDelta(t, func() (err error) {
		rep, err = p.Fix(context.Background(), core.Options{Lint: true})
		return err
	})
	seeded, changed := 0, 0
	for _, out := range rep.Files {
		if out.Err != "" {
			t.Fatalf("%s failed: %s", out.File, out.Err)
		}
		if out.File == "b.c" {
			seeded++
		}
		if out.Fix.SLR.AppliedCount() > 0 {
			changed++
		}
	}
	if len(rep.Edges) != 1 || changed != 1 {
		t.Fatalf("project shape changed: edges %+v, %d units changed by SLR", rep.Edges, changed)
	}
	if want := int64(len(p.TUs) + seeded + changed); fixParses != want {
		t.Fatalf("Fix parsed %d times, want %d (%d units + %d seeded + %d changed by SLR)",
			fixParses, want, len(p.TUs), seeded, changed)
	}
	lintParses := parseDelta(t, func() error {
		_, err := p.Analyze(context.Background(), lintOpts())
		return err
	})
	if want := int64(len(p.TUs) + seeded); lintParses != want {
		t.Fatalf("Analyze parsed %d times, want %d (%d units + %d seeded)", lintParses, want, len(p.TUs), seeded)
	}
}

// parseDelta runs f and returns how many parses it made.
func parseDelta(t *testing.T, f func() error) int64 {
	t.Helper()
	before := cparse.Parses()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return cparse.Parses() - before
}

// TestScanFailureKeepsFileName: a unit whose name contains ": " and
// that fails to parse keeps its scan failure and is not processed again.
func TestScanFailureKeepsFileName(t *testing.T) {
	p := InMemory(map[string]string{"a: b.c": "int f( {\n", "ok.c": "int g(void) { return 0; }\n"}, nil, nil)
	var rep *Report
	parses := parseDelta(t, func() (err error) {
		rep, err = p.Fix(context.Background(), core.Options{})
		return err
	})
	if parses != 2 {
		t.Fatalf("parsed %d times, want 2 (one per unit)", parses)
	}
	for _, out := range rep.Files {
		switch out.File {
		case "a: b.c":
			if !strings.HasPrefix(out.Err, "parse: ") || out.Fix != nil {
				t.Fatalf("a: b.c outcome = %+v, want the scan's parse failure", out)
			}
		case "ok.c":
			if out.Err != "" || out.Fix == nil {
				t.Fatalf("ok.c outcome = %+v", out)
			}
		}
	}
}

// TestProjectTimeoutPerUnit: Options.Timeout bounds each unit's whole
// pass, the scan's preprocess and parse included. An expired deadline
// fails every unit with the context's error and never escapes as a
// panic.
func TestProjectTimeoutPerUnit(t *testing.T) {
	rep, err := passProject().Fix(context.Background(), core.Options{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range rep.Files {
		if !strings.Contains(out.Err, context.DeadlineExceeded.Error()) {
			t.Fatalf("%s: outcome %+v, want a deadline failure", out.File, out)
		}
	}
}

// TestProjectLintCacheHit: a repeated project lint answers every unit
// from the cache, the seeded unit included, with the findings of the
// first run remapped as before and the unit's own text as its Source.
func TestProjectLintCacheHit(t *testing.T) {
	c, err := cache.New(16<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := lintOpts()
	opts.Cache = c
	p := passProject()
	cold, err := p.Analyze(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.Analyze(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range warm.Files {
		was := cold.Files[i]
		if out.Err != "" || was.Err != "" {
			t.Fatalf("%s failed: %q / %q", out.File, was.Err, out.Err)
		}
		if was.Fix.Cached || !out.Fix.Cached {
			t.Fatalf("%s: cached %v then %v, want a miss then a hit", out.File, was.Fix.Cached, out.Fix.Cached)
		}
		if !reflect.DeepEqual(out.Fix.Findings, was.Fix.Findings) || !reflect.DeepEqual(out.Fix.Degraded, was.Fix.Degraded) {
			t.Fatalf("%s: the hit's findings or degradations differ from the computed ones", out.File)
		}
		if out.Fix.Source != p.TUs[i].Source {
			t.Fatalf("%s: the hit's Source is not the unit's text", out.File)
		}
	}
}
