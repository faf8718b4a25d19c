package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cparse"
	"repro/internal/fault"
	"repro/internal/samate"
)

// FuzzFix asserts the pipeline's two end-to-end robustness contracts on
// arbitrary input: the full Fix pipeline (lint with both oracles, SLR
// and STR) never leaks
// a panic — the fault boundary converts any crash to an error, and this
// fuzz target fails if even that boundary is hit — and whenever a
// transformation succeeds, its output is still parseable C (a rewrite
// must never corrupt the text beyond what the parser accepts).
func FuzzFix(f *testing.F) {
	// Seed with real SAMATE programs so the fuzzer starts from inputs
	// that exercise every transformation shape, then let it mutate.
	for _, cwe := range samate.CWEs {
		for _, p := range samate.Generate(cwe, 2) {
			f.Add(p.Source)
		}
	}
	f.Add("void f(void) { char b[4]; strcpy(b, \"overflowing literal\"); }")
	f.Add("void f(void) { char b[4]; gets(b); }")
	f.Add("int x;")
	f.Add("void broken( {")
	// STR shapes whose rewrite once broke the program: block-scope
	// storage classes, an element's address or step, and declarators
	// kept beside a replaced variable.
	f.Add("void f(void) { static char s[8]; s[0] = 'a'; }")
	f.Add("void f(void) { extern char g[16]; g[0] = 'b'; }")
	f.Add("void f(void) { char t[8]; char *b; char *p; b = \"xy\"; t[0] = 'c'; p = &t[0]; p = &*b; }")
	f.Add("void f(void) { char t[8]; t[0] = 'c'; t[0]++; ++*t; }")
	f.Add("void f(void) { char t[8]; char *p; p = \"ab\"; *p += 1; t[1] = t[0] = 'y'; }")
	f.Add("void f(void) { char a[8], (*pa)[4] = 0, *fp(void); a[0] = 'd'; }")
	f.Add("void f(void) { char a[8], (*pa)[4] = 0, *arr[2]; a[0] = 'd'; }")
	f.Add("")
	// The integer-overflow corpus drives the integer oracle's wrap,
	// taint and allocation-sink paths.
	for _, cwe := range samate.IntCWEs {
		for _, p := range samate.IntGenerate(cwe, 2) {
			f.Add(p.Source)
		}
	}

	f.Fuzz(func(t *testing.T, src string) {
		// Bound pathological inputs; the analyses are super-linear on
		// deeply nested or call-heavy programs.
		if len(src) > 8192 || strings.Count(src, "(") > 200 {
			t.Skip()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// EmitSupport makes the output self-contained (the stralloc
		// typedef), so the re-parse below checks real parseability.
		rep, err := Fix(ctx, "fuzz.c", src, Options{SelectOffset: -1, Lint: true, Checks: "all", EmitSupport: true})
		if err != nil {
			// Parse errors and timeouts are legitimate outcomes; a
			// contained panic is a bug the boundary merely stopped from
			// crashing the process.
			var pe *fault.PanicError
			if errors.As(err, &pe) {
				t.Fatalf("pipeline panicked on %q:\n%v", src, pe)
			}
			return
		}
		if rep == nil {
			t.Fatalf("nil report without error for %q", src)
		}
		if _, err := cparse.Parse("fuzz-out.c", rep.Source); err != nil {
			t.Fatalf("transformed output no longer parses: %v\ninput:\n%s\noutput:\n%s",
				err, src, rep.Source)
		}
	})
}
