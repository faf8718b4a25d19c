package cinterp

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/backend"
)

// TestCatalogMatchesBuiltins requires the library catalog the analyses
// read and the functions the checked interpreter runs to name the same C
// library, so no function is modelled statically yet unrunnable, or run
// yet unknown to the oracles and STR.
func TestCatalogMatchesBuiltins(t *testing.T) {
	// notInCatalog lists, by prefix, builtins the catalog leaves out.
	notInCatalog := map[string]string{
		"stralloc_": "STR's support library: STR emits it and cinterp runs it natively, while the catalog models the C library a program calls",
	}
	for _, name := range backend.LibraryNames() {
		if _, ok := _builtins[name]; !ok {
			t.Errorf("catalog function %s has no cinterp builtin", name)
		}
	}
	var extra []string
builtins:
	for name := range _builtins {
		for prefix := range notInCatalog {
			if strings.HasPrefix(name, prefix) {
				continue builtins
			}
		}
		if _, ok := backend.Library(name); !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		t.Errorf("cinterp builtin %s is not in the catalog", name)
	}
}

// TestCatalogGapBuiltins runs the catalog functions the interpreter
// gained: stpcpy's result points at the copied NUL, getchar reads the
// queued input a byte at a time with each line ending in '\n' and then
// EOF, and g_malloc allocates like malloc.
func TestCatalogGapBuiltins(t *testing.T) {
	res := run(t, `
int main(void) {
    char buf[16];
    char *end = stpcpy(stpcpy(buf, "ab"), "cd");
    char *g = g_malloc(4);
    int c;
    g[3] = 'z';
    printf("%s %d %c|", buf, (int)(end - buf), g[3]);
    while ((c = getchar()) != -1) putchar(c);
    return 0;
}
`, "main", "hi", "")
	if want := "abcd 4 z|hi\n\n"; res.Stdout != want || res.HasViolations() {
		t.Fatalf("got %q %v, want %q", res.Stdout, res.Violations, want)
	}
}
