package str

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cparse"
	"repro/internal/stralloc"
)

// TestIdempotent: STR output contains no char-pointer candidates, so a
// second application is a no-op.
func TestIdempotent(t *testing.T) {
	first := runAll(t, `
void f(void) {
    char *p;
    char buf[8];
    p = "abc";
    p[0] = 'x';
    buf[1] = 'y';
}
`)
	if first.AppliedCount() != 2 {
		t.Fatalf("first pass applied %d", first.AppliedCount())
	}
	src2 := stralloc.Header() + "\n" + first.NewSource
	tu, err := cparse.Parse("t2.c", src2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewTransformer(analysis.New(tu, analysis.Config{})).ApplyAll()
	if err != nil {
		t.Fatal(err)
	}
	if second.Candidates() != 0 {
		t.Fatalf("second pass found %d candidates: %+v", second.Candidates(), second.Vars)
	}
	if second.NewSource != src2 {
		t.Fatal("second pass must be a no-op")
	}
}
