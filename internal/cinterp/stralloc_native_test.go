package cinterp

import (
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/stralloc"
	"repro/internal/typecheck"
)

// strallocDriver exercises every library function and prints a trace.
const strallocDriver = `
int main(void) {
    stralloc sa = {0,0,0};
    stralloc sb = {0,0,0};
    stralloc *x = &sa;
    stralloc *y = &sb;
    stralloc_ready(x, 4);
    stralloc_copys(x, "hello");
    printf("%s|%d|", x->s, x->len);
    stralloc_cats(x, " world");
    printf("%s|%d|", x->s, x->len);
    stralloc_copy(y, x);
    printf("%d|", stralloc_compare(x, y));
    stralloc_append(y, '!');
    printf("%s|%d|", y->s, stralloc_compare(x, y));
    printf("%d|", stralloc_get_dereferenced_char_at(x, 4));
    printf("%d|", stralloc_get_dereferenced_char_at(x, -3));
    printf("%d|", stralloc_get_dereferenced_char_at(x, 900));
    stralloc_dereference_replace_by(x, 0, 'H');
    printf("%s|", x->s);
    printf("%d|", stralloc_dereference_replace_by(x, -1, 'z'));
    printf("%d|", stralloc_find_char(x, 'w'));
    printf("%d|", stralloc_find_char(x, 'z'));
    stralloc_memset(y, 'm', 3);
    printf("%s|%d|", y->s, y->len);
    stralloc_increment_by(x, 2);
    printf("%s|%d|", x->s, x->len);
    stralloc_decrement_by(x, 1);
    printf("%s|%d|", x->s, x->len);
    printf("%d|", stralloc_increment_by(x, 500));
    printf("%d|", stralloc_decrement_by(x, 500));
    char *sub = stralloc_substring_at(x, 3);
    printf("%s|", sub);
    stralloc_free(x);
    printf("%d", x->a);
    return 0;
}
`

// TestNativeMatchesInterpreted runs the same driver against the
// interpreted C implementation and the native builtins; the observable
// outputs must be identical.
func TestNativeMatchesInterpreted(t *testing.T) {
	interpreted, err := loadAndRun("interp.c", stralloc.FullSource()+strallocDriver, "main", nil, Limits{})
	if err != nil {
		t.Fatalf("interpreted: %v", err)
	}
	native, err := loadAndRun("native.c", stralloc.Header()+strallocDriver, "main", nil, Limits{})
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	if interpreted.Stdout != native.Stdout {
		t.Fatalf("outputs differ:\ninterpreted: %q\nnative:      %q",
			interpreted.Stdout, native.Stdout)
	}
	if interpreted.HasViolations() {
		t.Fatalf("interpreted violations: %v", interpreted.Violations)
	}
	if native.HasViolations() {
		t.Fatalf("native violations: %v", native.Violations)
	}
	if interpreted.Stdout == "" {
		t.Fatal("driver produced no output")
	}
}

// TestNativeFasterThanInterpreted sanity-checks that the native library
// consumes fewer interpreter steps (the premise of the RQ3 measurement).
func TestNativeFasterThanInterpreted(t *testing.T) {
	steps := func(src string) int64 {
		unit, err := parseChecked(t, src)
		if err != nil {
			t.Fatal(err)
		}
		in, err := New(unit, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Run("main"); err != nil {
			t.Fatal(err)
		}
		return in.Steps()
	}
	si := steps(stralloc.FullSource() + strallocDriver)
	sn := steps(stralloc.Header() + strallocDriver)
	if sn >= si {
		t.Fatalf("native (%d steps) should be cheaper than interpreted (%d steps)", sn, si)
	}
}

// parseChecked is a small helper shared by the step-count test.
func parseChecked(t *testing.T, src string) (*cast.TranslationUnit, error) {
	t.Helper()
	unit, err := cparse.Parse("t.c", src)
	if err != nil {
		return nil, err
	}
	typecheck.Check(unit)
	return unit, nil
}
