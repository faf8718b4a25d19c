package incremental

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/edit"
)

// parsePath names the parse an edit took.
type parsePath string

const (
	wholeParse parsePath = "whole-unit parse"
	funcParse  parsePath = "function parse"
	noParse    parsePath = "no parse"
)

// editPath applies deltas and reports which parse the edit took: a
// function parse that was not declined, a whole-unit parse (after a
// declined function parse or none), or no parse at all.
func editPath(t *testing.T, s *Session, deltas ...edit.Delta) (parsePath, error) {
	t.Helper()
	whole0, func0 := cparse.Parses(), cparse.FuncParses()
	_, err := s.Edit(context.Background(), deltas)
	whole, fn := cparse.Parses()-whole0, cparse.FuncParses()-func0
	switch {
	case whole == 0 && fn == 0:
		return noParse, err
	case whole == 0 && fn == 1:
		return funcParse, err
	case whole == 1 && fn <= 1:
		return wholeParse, err
	}
	t.Fatalf("edit made %d whole-unit and %d function parses", whole, fn)
	return "", nil
}

// insertAt returns an insertion of text before the first occurrence of
// at in the session text.
func insertAt(t *testing.T, s *Session, at, text string) edit.Delta {
	t.Helper()
	i := strings.Index(s.Text(), at)
	if i < 0 {
		t.Fatalf("%q not in the session text", at)
	}
	return edit.Insert(ctoken.Pos(i), text)
}

// requireSymbolsMatchFresh checks that the session's unit numbers and
// names its symbols as a whole parse of its text does.
func requireSymbolsMatchFresh(t *testing.T, s *Session) {
	t.Helper()
	fresh, err := analysis.Parse(s.name, s.Text())
	if err != nil {
		t.Fatalf("fresh parse: %v", err)
	}
	got, want := s.snap.Unit().Symbols, fresh.Unit().Symbols
	if len(got) != len(want) {
		t.Fatalf("session unit has %d symbols, a whole parse %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != i || got[i].Name != want[i].Name || got[i].Kind != want[i].Kind {
			t.Fatalf("symbol %d: session has %s (ID %d), a whole parse %s", i, got[i].Name, got[i].ID, want[i].Name)
		}
	}
	if !reflect.DeepEqual(s.snap.Unit().Bodies, fresh.Unit().Bodies) {
		t.Fatalf("body symbol ranges %v, a whole parse %v", s.snap.Unit().Bodies, fresh.Unit().Bodies)
	}
}

// TestInBodyParseErrorMatchesWholeParse: an in-body edit that breaks the
// parse is decided by the function parse, fails with the error text a
// whole parse gives, and leaves the session as it was.
func TestInBodyParseErrorMatchesWholeParse(t *testing.T) {
	s, _ := open(t, twoFuncs)
	text, findings, sites := s.Text(), s.Findings(), s.Sites()
	d := insertAt(t, s, `strcpy(b`, "x = ;\n    ")
	want, err := edit.NewScript(d).Apply(text)
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := analysis.Parse("s.c", want)
	if wantErr == nil {
		t.Fatal("the broken text parses")
	}
	path, err := editPath(t, s, d)
	if path != funcParse {
		t.Fatalf("edit took a %s, want a function parse", path)
	}
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("edit error %v, a whole parse gives %v", err, wantErr)
	}
	if s.Text() != text || !reflect.DeepEqual(s.Findings(), findings) || !reflect.DeepEqual(s.Sites(), sites) {
		t.Fatal("failed edit changed the session")
	}
	if path, err := editPath(t, s, insertAt(t, s, "char b[8]", "int ok; ")); err != nil || path != funcParse {
		t.Fatalf("edit after the failed one: %s, %v", path, err)
	}
	requireEquivalent(t, s)
	requireSymbolsMatchFresh(t, s)
}

// TestLexBreakingInsertsFallBack: a brace, an unterminated comment or an
// unterminated string inserted inside a body cannot be decided from the
// body alone; the edit parses the whole unit and answers as it does.
func TestLexBreakingInsertsFallBack(t *testing.T) {
	const src = twoFuncs + "\n/* trailing */\nvoid third(void) { }\n"
	for _, ins := range []string{"}", "/*", `"open`, "{"} {
		t.Run(ins, func(t *testing.T) {
			s, _ := open(t, src)
			text := s.Text()
			d := insertAt(t, s, "strcpy(a", ins+" ")
			want, err := edit.NewScript(d).Apply(text)
			if err != nil {
				t.Fatal(err)
			}
			_, wantErr := analysis.Parse("s.c", want)
			path, err := editPath(t, s, d)
			if path != wholeParse {
				t.Fatalf("edit took a %s, want a whole-unit parse", path)
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("edit error %v, a whole parse gives %v", err, wantErr)
			}
			if err != nil && s.Text() != text {
				t.Fatal("failed edit changed the session text")
			}
			requireEquivalent(t, s)
		})
	}
}

// TestLocalDeclarationAddAndDelete: adding a local renumbers every later
// symbol, deleting it numbers them back; both edits take the function
// parse and stay equivalent to a fresh run.
func TestLocalDeclarationAddAndDelete(t *testing.T) {
	s, _ := open(t, structUsers)
	decl := "int extra = 3; "
	if path, err := editPath(t, s, insertAt(t, s, "strcpy(p->body", decl)); err != nil || path != funcParse {
		t.Fatalf("adding a local: %s, %v", path, err)
	}
	requireEquivalent(t, s)
	requireSymbolsMatchFresh(t, s)

	at := ctoken.Pos(strings.Index(s.Text(), decl))
	del := edit.Delta{Extent: ctoken.Extent{Pos: at, End: at + ctoken.Pos(len(decl))}}
	if path, err := editPath(t, s, del); err != nil || path != funcParse {
		t.Fatalf("deleting the local: %s, %v", path, err)
	}
	requireEquivalent(t, s)
	requireSymbolsMatchFresh(t, s)
}

// TestSignatureEditFallsBack: an edit outside a body's braces parses the
// whole unit.
func TestSignatureEditFallsBack(t *testing.T) {
	s, _ := open(t, twoFuncs)
	at := strings.Index(s.Text(), "second(void)") + len("second(")
	d := edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + len("void"))}, "int n")
	if path, err := editPath(t, s, d); err != nil || path != wholeParse {
		t.Fatalf("signature edit: %s, %v", path, err)
	}
	requireEquivalent(t, s)
}

// TestDuplicateNamesFallBack: a unit with two definitions of one name
// parses whole on an in-body edit.
func TestDuplicateNamesFallBack(t *testing.T) {
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
	at := strings.Index(s.Text(), "b[8]") + len("b[")
	d := edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 1)}, "2")
	if path, err := editPath(t, s, d); err != nil || path != wholeParse {
		t.Fatalf("in-body edit with duplicate names: %s, %v", path, err)
	}
	requireEquivalent(t, s)
}

// TestFailedEditRestoresSharedNodes: an in-body edit that parses through
// the function path, shifting the later function, and then fails after
// the parse (here the lint rejects a check set the test swaps in, since
// SLR now declines every site nested in a clamped length) puts the
// shared nodes back, so the next in-body edit to the later function
// takes the function path again and stays equivalent.
func TestFailedEditRestoresSharedNodes(t *testing.T) {
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
	at := ctoken.Pos(strings.Index(s.Text(), "xmemcpy"))
	checks := s.conf.Checks
	s.conf.Checks = "none"
	path, err := editPath(t, s, edit.Delta{Extent: ctoken.Extent{Pos: at, End: at + 1}})
	s.conf.Checks = checks
	if path != funcParse || err == nil {
		t.Fatalf("failing edit: %s, %v; want a function parse and an error", path, err)
	}
	at = ctoken.Pos(strings.Index(s.Text(), "d[4]") + len("d["))
	if path, err := editPath(t, s, edit.Replace(ctoken.Extent{Pos: at, End: at + 1}, "12")); err != nil || path != funcParse {
		t.Fatalf("edit after the failed one: %s, %v; want a function parse", path, err)
	}
	requireEquivalent(t, s)
	requireSymbolsMatchFresh(t, s)
}
