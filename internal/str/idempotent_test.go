package str

import (
	"testing"

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
	src2 := stralloc.Header() + "\n" + first.Out
	second := runAll(t, src2)
	if second.Candidates() != 0 {
		t.Fatalf("second pass found %d candidates: %+v", second.Candidates(), second.Vars)
	}
	if second.Out != src2 {
		t.Fatal("second pass must be a no-op")
	}
}
