package incremental

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	tiff "repro/internal/corpus"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/edit"
	"repro/internal/intflow"
	"repro/internal/overflow"
)

// twoFuncs holds two overflowing functions with no call edges between
// them, so each is its own dependency-closure root: editing one must
// not re-derive the other.
const twoFuncs = `
void first(void) {
    char a[8];
    strcpy(a, "0123456789");
}

void second(void) {
    char b[8];
    strcpy(b, "abcdefghij");
}
`

// structUsers shares one struct between two functions; a third is
// independent of it.
const structUsers = `
struct pkt { char body[8]; };

void reader(struct pkt *p) {
    strcpy(p->body, "0123456789");
}

void writer(struct pkt *p) {
    memset(p->body, 0, 16);
}

void loner(void) {
    char c[4];
    strcpy(c, "xxxxxxxx");
}
`

func open(t *testing.T, src string) (*Session, *Result) {
	t.Helper()
	s, res, err := Open(context.Background(), "s.c", src, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, res
}

// fresh is the equivalence baseline: a from-scratch core.Analyze plus a
// from-scratch session open for the site list.
func fresh(t *testing.T, src string) ([]overflow.Finding, []Site) {
	t.Helper()
	findings, err := core.Analyze(context.Background(), "s.c", src, core.Options{Checks: "all"})
	if err != nil {
		t.Fatalf("fresh Analyze: %v", err)
	}
	_, res, err := Open(context.Background(), "s.c", src, Config{})
	if err != nil {
		t.Fatalf("fresh Open: %v", err)
	}
	return findings, res.Sites
}

func requireEquivalent(t *testing.T, s *Session) {
	t.Helper()
	wantF, wantS := fresh(t, s.Text())
	if got := s.Findings(); !reflect.DeepEqual(got, wantF) {
		t.Fatalf("findings diverge from fresh analysis:\nsession: %+v\nfresh:   %+v", got, wantF)
	}
	if got := s.Sites(); !reflect.DeepEqual(got, wantS) {
		t.Fatalf("sites diverge from fresh discovery:\nsession: %+v\nfresh:   %+v", got, wantS)
	}
}

func TestOpenMatchesFreshAnalyze(t *testing.T) {
	s, res := open(t, twoFuncs)
	if len(res.Findings) == 0 {
		t.Fatal("expected findings in overflowing sample")
	}
	if len(res.Sites) == 0 {
		t.Fatal("expected SLR sites in overflowing sample")
	}
	requireEquivalent(t, s)
}

// TestCommentEditReusesEverything pins the satellite guarantee: an edit
// that only touches comments/whitespace invalidates nothing — zero
// functions re-analyzed, zero new fixpoint solves in either oracle, and
// the site list reused without re-running the transformers.
func TestCommentEditReusesEverything(t *testing.T) {
	s, _ := open(t, twoFuncs)

	at := ctoken.Pos(strings.Index(s.Text(), "    char b[8];"))
	ovf0, int0 := overflow.Solves(), intflow.Solves()
	res, err := s.Edit(context.Background(), []edit.Delta{
		edit.Insert(at, "/* a comment on its own line */\n"),
	})
	if err != nil {
		t.Fatalf("Edit: %v", err)
	}
	if res.FuncsReanalyzed != 0 || res.FuncsReused != 2 {
		t.Fatalf("comment edit: reanalyzed=%d reused=%d, want 0/2", res.FuncsReanalyzed, res.FuncsReused)
	}
	if d := overflow.Solves() - ovf0; d != 0 {
		t.Fatalf("comment edit ran %d overflow solves, want 0", d)
	}
	if d := intflow.Solves() - int0; d != 0 {
		t.Fatalf("comment edit ran %d intflow solves, want 0", d)
	}
	requireEquivalent(t, s)
}

// TestSingleFunctionEditSolvesOnlyDirty pins the counter proof from the
// acceptance criteria: after an edit inside one function, the fixpoint
// solver runs for that function alone.
func TestSingleFunctionEditSolvesOnlyDirty(t *testing.T) {
	s, _ := open(t, twoFuncs)

	// Grow first's buffer: first is dirty, second must replay.
	at := strings.Index(s.Text(), "a[8]") + len("a[")
	ovf0, int0 := overflow.Solves(), intflow.Solves()
	res, err := s.Edit(context.Background(), []edit.Delta{
		edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 1)}, "9"),
	})
	if err != nil {
		t.Fatalf("Edit: %v", err)
	}
	if res.FuncsReanalyzed != 1 || res.FuncsReused != 1 {
		t.Fatalf("single-function edit: reanalyzed=%d reused=%d, want 1/1", res.FuncsReanalyzed, res.FuncsReused)
	}
	if d := overflow.Solves() - ovf0; d != 1 {
		t.Fatalf("overflow solves after single-function edit: %d, want exactly 1 (the edited function)", d)
	}
	if d := intflow.Solves() - int0; d != 1 {
		t.Fatalf("intflow solves after single-function edit: %d, want exactly 1 (the edited function)", d)
	}
	requireEquivalent(t, s)
}

// TestSharedStructEditInvalidatesUsers pins dependency-hash propagation
// through file-scope declarations: shrinking a struct both reader and
// writer reference dirties exactly those two, never the loner.
func TestSharedStructEditInvalidatesUsers(t *testing.T) {
	s, _ := open(t, structUsers)

	at := strings.Index(s.Text(), "body[8]") + len("body[")
	res, err := s.Edit(context.Background(), []edit.Delta{
		edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 1)}, "4"),
	})
	if err != nil {
		t.Fatalf("Edit: %v", err)
	}
	if res.FuncsReanalyzed != 2 || res.FuncsReused != 1 {
		t.Fatalf("struct edit: reanalyzed=%d reused=%d, want 2 users dirty and 1 loner reused",
			res.FuncsReanalyzed, res.FuncsReused)
	}
	requireEquivalent(t, s)
}

// TestWholeFileResendIsIncremental pins the Minimize path used by
// full-text-sync LSP clients: re-sending the entire file with a
// one-byte change must count as that one byte, not as a whole-file
// replace that collapses every retained extent.
func TestWholeFileResendIsIncremental(t *testing.T) {
	s, _ := open(t, twoFuncs)

	// Identical resend: a pure no-op, nothing parsed or re-derived.
	ovf0 := overflow.Solves()
	whole := ctoken.Extent{Pos: 0, End: ctoken.Pos(len(s.Text()))}
	parses0, funcParses0 := cparse.Parses(), cparse.FuncParses()
	res, err := s.Edit(context.Background(), []edit.Delta{edit.Replace(whole, s.Text())})
	if err != nil {
		t.Fatalf("identity resend: %v", err)
	}
	if res.FuncsReanalyzed != 0 || res.FuncsReused != 2 || overflow.Solves() != ovf0 {
		t.Fatalf("identity resend re-derived work: reanalyzed=%d reused=%d solves=%d",
			res.FuncsReanalyzed, res.FuncsReused, overflow.Solves()-ovf0)
	}
	if n, f := cparse.Parses()-parses0, cparse.FuncParses()-funcParses0; n != 0 || f != 0 {
		t.Fatalf("identity resend made %d whole-unit and %d function parses, want none", n, f)
	}
	if c := s.Counters(); c.EditsApplied != 1 || c.FuncsReused != 2 {
		t.Fatalf("identity resend counters %+v, want one edit reusing both functions", c)
	}

	// Whole-file resend with one byte changed inside second: a function
	// parse of second alone.
	edited := strings.Replace(s.Text(), "b[8]", "b[6]", 1)
	ovf0 = overflow.Solves()
	parses0, funcParses0 = cparse.Parses(), cparse.FuncParses()
	res, err = s.Edit(context.Background(), []edit.Delta{edit.Replace(whole, edited)})
	if err != nil {
		t.Fatalf("one-byte resend: %v", err)
	}
	if n, f := cparse.Parses()-parses0, cparse.FuncParses()-funcParses0; n != 0 || f != 1 {
		t.Fatalf("one-byte resend made %d whole-unit and %d function parses, want 0 and 1", n, f)
	}
	if s.Text() != edited {
		t.Fatal("resend did not apply")
	}
	if res.FuncsReanalyzed != 1 || res.FuncsReused != 1 {
		t.Fatalf("one-byte resend: reanalyzed=%d reused=%d, want 1/1", res.FuncsReanalyzed, res.FuncsReused)
	}
	if d := overflow.Solves() - ovf0; d != 1 {
		t.Fatalf("one-byte resend ran %d overflow solves, want 1", d)
	}
	requireEquivalent(t, s)
}

// TestEditInsideFindingExtentStaysEquivalent exercises the remap
// exactness gate: a comment inserted inside a finding's call expression
// leaves the hash unchanged but must force re-derivation, because the
// fresh extent grows to cover the comment.
func TestEditInsideFindingExtentStaysEquivalent(t *testing.T) {
	s, _ := open(t, twoFuncs)

	// Inside the first strcpy's argument list.
	at := ctoken.Pos(strings.Index(s.Text(), `a, "0123456789"`))
	if _, err := s.Edit(context.Background(), []edit.Delta{
		edit.Insert(at, "/*in-call*/"),
	}); err != nil {
		t.Fatalf("Edit: %v", err)
	}
	requireEquivalent(t, s)
}

func TestEditThatBreaksParseLeavesSessionIntact(t *testing.T) {
	s, _ := open(t, twoFuncs)
	before := s.Text()
	wantF := s.Findings()

	at := ctoken.Pos(strings.Index(before, "strcpy"))
	if _, err := s.Edit(context.Background(), []edit.Delta{
		edit.Insert(at, ")))"),
	}); err == nil {
		t.Fatal("expected parse error")
	}
	if s.Text() != before {
		t.Fatal("failed edit mutated the session text")
	}
	if !reflect.DeepEqual(s.Findings(), wantF) {
		t.Fatal("failed edit mutated the session findings")
	}
	// The session must still accept edits afterwards.
	if _, err := s.Edit(context.Background(), []edit.Delta{
		edit.Insert(0, "/*ok*/"),
	}); err != nil {
		t.Fatalf("edit after failed edit: %v", err)
	}
	requireEquivalent(t, s)
}

func TestCountersAccumulate(t *testing.T) {
	s, _ := open(t, twoFuncs)
	for i := 0; i < 3; i++ {
		if _, err := s.Edit(context.Background(), []edit.Delta{
			edit.Insert(0, "/*x*/"),
		}); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	c := s.Counters()
	if c.EditsApplied != 3 {
		t.Fatalf("EditsApplied = %d, want 3", c.EditsApplied)
	}
	if c.FuncsReused != 6 || c.FuncsReanalyzed != 0 {
		t.Fatalf("reused=%d reanalyzed=%d, want 6/0", c.FuncsReused, c.FuncsReanalyzed)
	}
}

func TestDeletedFunctionCountsDirty(t *testing.T) {
	s, _ := open(t, twoFuncs)
	// Delete second entirely.
	start := strings.Index(s.Text(), "void second")
	res, err := s.Edit(context.Background(), []edit.Delta{
		edit.Delete(ctoken.Extent{Pos: ctoken.Pos(start), End: ctoken.Pos(len(s.Text()))}),
	})
	if err != nil {
		t.Fatalf("Edit: %v", err)
	}
	if res.FuncsReanalyzed != 1 || res.FuncsReused != 1 {
		t.Fatalf("deletion: reanalyzed=%d reused=%d, want 1 (deleted) / 1 (kept)", res.FuncsReanalyzed, res.FuncsReused)
	}
	requireEquivalent(t, s)
}

// TestInBodyEditIsPerFunction pins the per-function cost of an edit:
// site discovery runs over the functions whose dependency hash changed
// or whose sites the edit landed inside, and no others.
func TestInBodyEditIsPerFunction(t *testing.T) {
	s, _ := open(t, structUsers)
	if s.discovered != 3 {
		t.Fatalf("Open discovered sites in %d functions, want all 3", s.discovered)
	}
	// Each edit replaces from, found inside the first occurrence of at,
	// with to.
	edits := []struct {
		name         string
		at, from, to string
		discovered   int
	}{
		// In-body edit to a leaf: only loner is re-discovered.
		{"in-body", "c[4]", "4", "6", 1},
		// A comment inside reader's strcpy keeps every hash but moves
		// the call's end: reader alone is re-discovered.
		{"inside a site", `"0123456789")`, `"0123456789"`, `"0123456789" /*c*/`, 1},
		// A comment between functions shifts every site exactly.
		{"between functions", "void writer", "void", "/* c */\nvoid", 0},
		// A file-scope edit dirties the struct's two users.
		{"file scope", "body[8]", "8", "4", 2},
	}
	for _, e := range edits {
		at := strings.Index(s.Text(), e.at)
		if at < 0 {
			t.Fatalf("%s: %q not in text", e.name, e.at)
		}
		at += strings.Index(e.at, e.from)
		if _, err := s.Edit(context.Background(), []edit.Delta{
			edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + len(e.from))}, e.to),
		}); err != nil {
			t.Fatalf("%s: Edit: %v", e.name, err)
		}
		if s.discovered != e.discovered {
			t.Fatalf("%s: site discovery ran over %d functions, want %d", e.name, s.discovered, e.discovered)
		}
		requireEquivalent(t, s)
	}
}

// TestBenchShapedEditParsesOneFunction pins the cost of the edit the
// session benchmark makes, one number in one function of the libtiff
// session unit: no whole-unit parse, one function parse, and site
// discovery over that function alone.
func TestBenchShapedEditParsesOneFunction(t *testing.T) {
	if testing.Short() {
		t.Skip("opens the 100 KB libtiff unit")
	}
	p, ok := tiff.ProjectByName("libtiff", 2)
	if !ok {
		t.Fatal("corpus has no libtiff project")
	}
	const toggle = "\nvoid bench_toggle0(void) {\n    char buf0[16];\n    memset(buf0, 'A', 8);\n}\n"
	s, _ := open(t, p.ConcatenatedUnit()+toggle)
	at := ctoken.Pos(strings.Index(s.Text(), "'A', 8") + len("'A', "))
	path, err := editPath(t, s, edit.Replace(ctoken.Extent{Pos: at, End: at + 1}, "24"))
	if err != nil || path != funcParse {
		t.Fatalf("bench-shaped edit: %s, %v; want a function parse", path, err)
	}
	if s.discovered != 1 {
		t.Fatalf("site discovery ran over %d functions, want 1", s.discovered)
	}
	requireEquivalent(t, s)
}

// TestShadowedLocalsGetDistinctAnchors: two same-named locals in sibling
// blocks are two STR sites, each anchored at its own declaration.
func TestShadowedLocalsGetDistinctAnchors(t *testing.T) {
	const src = `
void shadow(int c) {
    if (c) {
        char *p;
        p = malloc(8);
        p[0] = 'a';
    } else {
        char *p;
        p = malloc(16);
        p[0] = 'b';
    }
}
`
	s, res := open(t, src)
	var anchors []ctoken.Pos
	for _, st := range res.Sites {
		if st.Kind == SiteSTR && st.Name == "p" {
			anchors = append(anchors, st.Extent.Pos)
		}
	}
	first := strings.Index(src, "char *p;")
	second := strings.LastIndex(src, "char *p;")
	if len(anchors) != 2 {
		t.Fatalf("STR sites for p: %v, want 2", anchors)
	}
	for i, decl := range []int{first, second} {
		if a := int(anchors[i]); a < decl || a >= decl+len("char *p;") {
			t.Fatalf("anchor %d at offset %d, outside its declaration at [%d,%d)", i, a, decl, decl+len("char *p;"))
		}
	}
	// A comment right before the second declaration moves its anchor
	// and leaves the first where it was.
	if _, err := s.Edit(context.Background(), []edit.Delta{edit.Insert(ctoken.Pos(second), "/*c*/ ")}); err != nil {
		t.Fatalf("Edit: %v", err)
	}
	requireEquivalent(t, s)
}

// TestFailedDiscoveryLeavesSessionIntact: an edit that parses but then
// fails to derive its facts is rejected without moving the session to
// the new text. SLR now declines every site nested in a clamped memcpy
// length, the input that made its splice fail, so the test makes the
// lint fail instead by swapping in a check set it rejects.
func TestFailedDiscoveryLeavesSessionIntact(t *testing.T) {
	const src = `
void f(void) {
    char a[8];
    char c[8];
    char b[16];
    xmemcpy(a, b, strlen(gets(c)));
}

void g(void) {
    char d[4];
    strcpy(d, "toolong");
}
`
	s, _ := open(t, src)
	text, findings, sites := s.Text(), s.Findings(), s.Sites()
	at := strings.Index(text, "xmemcpy")
	checks := s.conf.Checks
	s.conf.Checks = "none"
	_, err := s.Edit(context.Background(), []edit.Delta{
		edit.Delete(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 1)}),
	})
	s.conf.Checks = checks
	if err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Fatalf("Edit error = %v, want a lint failure", err)
	}
	if s.Text() != text {
		t.Fatal("failed edit moved the session text")
	}
	if !reflect.DeepEqual(s.Findings(), findings) {
		t.Fatal("failed edit changed the session findings")
	}
	if !reflect.DeepEqual(s.Sites(), sites) {
		t.Fatal("failed edit changed the session sites")
	}
	// The session still edits correctly afterwards.
	at = strings.Index(text, "d[4]") + len("d[")
	if _, err := s.Edit(context.Background(), []edit.Delta{
		edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 1)}, "2"),
	}); err != nil {
		t.Fatalf("edit after failed edit: %v", err)
	}
	requireEquivalent(t, s)
}

// TestDuplicateFunctionNamesStayEquivalent: two definitions of one name
// share one entry of the by-name hash map, so the session cannot key
// their sites apart; an edit to either must still match a fresh run.
func TestDuplicateFunctionNamesStayEquivalent(t *testing.T) {
	const src = `
void twice(void) {
    char a[8];
    strcpy(a, "0123456789");
}

void twice(void) {
    char b[8];
    strcpy(b, "abc");
}
`
	s, _ := open(t, src)
	for _, from := range []string{"a[8]", "b[8]"} {
		at := strings.Index(s.Text(), from) + len("a[")
		if _, err := s.Edit(context.Background(), []edit.Delta{
			edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 1)}, "2"),
		}); err != nil {
			t.Fatalf("Edit: %v", err)
		}
		if s.discovered != 2 {
			t.Fatalf("site discovery ran over %d functions, want both definitions", s.discovered)
		}
		requireEquivalent(t, s)
	}
}
