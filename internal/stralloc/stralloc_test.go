package stralloc

import (
	"strings"
	"testing"

	"repro/internal/cparse"
	"repro/internal/typecheck"
)

func TestHeaderParses(t *testing.T) {
	tu, err := cparse.Parse("stralloc.h", Header())
	if err != nil {
		t.Fatalf("header must parse: %v", err)
	}
	if errs := typecheck.Check(tu); len(errs) > 0 {
		t.Fatalf("header must typecheck: %v", errs[0])
	}
}

func TestFullSourceParsesAndChecks(t *testing.T) {
	tu, err := cparse.Parse("stralloc.c", FullSource())
	if err != nil {
		t.Fatalf("implementation must parse: %v", err)
	}
	if errs := typecheck.Check(tu); len(errs) > 0 {
		t.Fatalf("implementation must typecheck: %v", errs[0])
	}
	// All 18 functions must be defined.
	defined := make(map[string]bool, len(tu.Funcs))
	for _, f := range tu.Funcs {
		defined[f.Name] = true
	}
	for _, name := range functionNames {
		if !defined[name] {
			t.Errorf("function %s missing from implementation", name)
		}
	}
}

// functionNames lists the paper's 18 library functions.
var functionNames = []string{
	"stralloc_init",
	"stralloc_ready",
	"stralloc_free",
	"stralloc_copys",
	"stralloc_copybuf",
	"stralloc_copy",
	"stralloc_cats",
	"stralloc_catbuf",
	"stralloc_cat",
	"stralloc_append",
	"stralloc_memset",
	"stralloc_get_dereferenced_char_at",
	"stralloc_dereference_replace_by",
	"stralloc_increment_by",
	"stralloc_decrement_by",
	"stralloc_compare",
	"stralloc_find_char",
	"stralloc_substring_at",
}

func TestEighteenFunctions(t *testing.T) {
	// Section III-C: "Our implementation contains 18 functions."
	if len(functionNames) != 18 {
		t.Fatalf("function count: got %d, want 18", len(functionNames))
	}
	seen := make(map[string]bool, len(functionNames))
	for _, n := range functionNames {
		if seen[n] {
			t.Errorf("duplicate function name %s", n)
		}
		seen[n] = true
		if !strings.HasPrefix(n, "stralloc_") {
			t.Errorf("function %s lacks the stralloc_ prefix", n)
		}
	}
}

func TestHeaderDeclaresStruct(t *testing.T) {
	h := Header()
	for _, field := range []string{"char* s;", "char* f;", "unsigned int len;", "unsigned int a;"} {
		if !strings.Contains(h, field) {
			t.Errorf("header missing field %q", field)
		}
	}
}
