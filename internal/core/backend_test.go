package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/backend"
)

// TestFixBackendGlibIsDefault: an explicit Backend: "glib" must be
// byte-identical to the zero value — the default dialect is pinned.
func TestFixBackendGlibIsDefault(t *testing.T) {
	def, err := Fix(context.Background(), "d.c", overflowing, Options{SelectOffset: -1, EmitSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	glib, err := Fix(context.Background(), "d.c", overflowing, Options{SelectOffset: -1, EmitSupport: true, Backend: "glib"})
	if err != nil {
		t.Fatal(err)
	}
	if def.Source != glib.Source {
		t.Fatal("Backend: \"glib\" diverges from the default output")
	}
	if def.Backend != "glib" || glib.Backend != "glib" {
		t.Fatalf("Report.Backend = %q / %q, want glib", def.Backend, glib.Backend)
	}
}

// TestFixBackendDialectOutputs: each dialect's fix of the same source
// carries its own safe callees and support declarations end to end.
func TestFixBackendDialectOutputs(t *testing.T) {
	src := `
void f(void) {
    char buf[8];
    char in[64];
    strcpy(buf, in);
}
`
	cases := []struct {
		backend string
		call    string
		proto   string
	}{
		{"glib", "g_strlcpy(buf, in, sizeof(buf))", "g_strlcpy"},
		{"bsd", "strlcpy(buf, in, sizeof(buf))", "strlcpy"},
		{"c11k", "strcpy_s(buf, sizeof(buf), in)", "errno_t strcpy_s"},
	}
	for _, c := range cases {
		rep, err := Fix(context.Background(), "f.c", src,
			Options{SelectOffset: -1, EmitSupport: true, DisableSTR: true, Backend: c.backend})
		if err != nil {
			t.Fatalf("%s: %v", c.backend, err)
		}
		if rep.Backend != c.backend {
			t.Fatalf("Report.Backend = %q, want %q", rep.Backend, c.backend)
		}
		if !strings.Contains(rep.Source, c.call) {
			t.Fatalf("%s output missing %q:\n%s", c.backend, c.call, rep.Source)
		}
		if !strings.Contains(rep.Source, c.proto) {
			t.Fatalf("%s support missing %q:\n%s", c.backend, c.proto, rep.Source)
		}
		if !strings.Contains(rep.Summary(), "-> "+strings.SplitN(c.call, "(", 2)[0]) {
			t.Fatalf("%s summary does not name the dialect callee:\n%s", c.backend, rep.Summary())
		}
	}
}

// TestFixBackendUnknownErrors: Fix and Analyze reject an unknown dialect
// before doing any work, naming the valid set.
func TestFixBackendUnknownErrors(t *testing.T) {
	opts := Options{SelectOffset: -1, Backend: "musl"}
	if _, err := Fix(context.Background(), "u.c", overflowing, opts); err == nil ||
		!strings.Contains(err.Error(), "glib, bsd, c11k") {
		t.Fatalf("Fix with unknown backend: %v", err)
	}
	if _, err := Analyze(context.Background(), "u.c", overflowing, opts); err == nil {
		t.Fatal("Analyze accepted an unknown backend")
	}
}

// TestFixIdempotentPerBackend: Fix(Fix(x)) == Fix(x) holds for every
// non-default dialect over >= 200 SAMATE programs — the safe callees a
// dialect introduces are never in its own unsafe set, so a second pass
// over hardened output changes nothing. (The glib dialect is covered by
// TestFixIdempotentOnSAMATE over the full corpus.)
func TestFixIdempotentPerBackend(t *testing.T) {
	inputs := equivCorpus(t, 200)
	for _, dialect := range []string{"bsd", "c11k"} {
		t.Run(dialect, func(t *testing.T) {
			opts := Options{SelectOffset: -1, Backend: dialect}
			first := FixAll(context.Background(), inputs, opts, 0)
			second := make([]FileInput, len(first))
			for i, out := range first {
				if out.Err != nil {
					t.Fatalf("%s: first pass: %v", out.Filename, out.Err)
				}
				second[i] = FileInput{Filename: out.Filename, Source: refixInput(out.Report.Source)}
			}
			reouts := FixAll(context.Background(), second, opts, 0)
			violations := 0
			for i, out := range reouts {
				if out.Err != nil {
					t.Fatalf("%s: second pass: %v", out.Filename, out.Err)
				}
				if out.Report.Source != second[i].Source {
					violations++
					if violations <= 3 {
						t.Errorf("%s: not a fixpoint under %s", out.Filename, dialect)
					}
				}
			}
			if violations > 0 {
				t.Fatalf("%d/%d programs are not fixpoints under %s", violations, len(inputs), dialect)
			}
			t.Logf("fixpoint holds on %d programs under %s", len(inputs), dialect)
		})
	}
}

// TestFixCachedBackendSeparation is the satellite acceptance property:
// warming the cache under one dialect must not serve another dialect's
// request — each backend gets its own cache entries, and "" and "glib"
// share one.
func TestFixCachedBackendSeparation(t *testing.T) {
	c := newTestCache(t)
	warm := Options{SelectOffset: -1, Cache: c}
	if rep, err := Fix(context.Background(), "b.c", overflowing, warm); err != nil || rep.Cached {
		t.Fatalf("seed: err=%v", err)
	}

	// "" and "glib" are the same canonical selection: hit.
	glib := Options{SelectOffset: -1, Cache: c, Backend: "glib"}
	rep, err := Fix(context.Background(), "b.c", overflowing, glib)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cached {
		t.Fatal("explicit glib missed the entry warmed by the default")
	}
	if !strings.Contains(rep.Source, "g_strlcpy") {
		t.Fatalf("glib hit lacks glib callees:\n%s", rep.Source)
	}

	// Other dialects must miss the glib entry and compute their own text.
	for _, want := range []struct{ backend, call string }{
		{"bsd", "strlcpy("},
		{"c11k", "strcpy_s("},
	} {
		opts := Options{SelectOffset: -1, Cache: c, Backend: want.backend}
		var cold *Report
		delta := parseDelta(func() {
			cold, err = Fix(context.Background(), "b.c", overflowing, opts)
			if err != nil {
				t.Fatal(err)
			}
		})
		if cold.Cached || delta == 0 {
			t.Fatalf("%s request served from the glib cache entry (hit=%v parses=%d)", want.backend, cold.Cached, delta)
		}
		if !strings.Contains(cold.Source, want.call) {
			t.Fatalf("%s output missing %q:\n%s", want.backend, want.call, cold.Source)
		}
		// And its own repeat is a hit with the dialect's text intact.
		warmRep, err := Fix(context.Background(), "b.c", overflowing, opts)
		if err != nil || !warmRep.Cached {
			t.Fatalf("%s warm repeat: err=%v", want.backend, err)
		}
		if warmRep.Source != cold.Source || warmRep.Backend != want.backend {
			t.Fatalf("%s cached report mutated: backend=%q", want.backend, warmRep.Backend)
		}
	}
}

// TestLintFixTextNamesDialect: the lint fix text suggests the selected
// dialect's replacement, not the default's.
func TestLintFixTextNamesDialect(t *testing.T) {
	src := "void f(void) {\n    char a[8];\n    strcpy(a, \"0123456789\");\n}\n"
	for be, want := range map[string]string{
		"glib": "replace strcpy with g_strlcpy (SLR)",
		"bsd":  "replace strcpy with strlcpy (SLR)",
		"c11k": "replace strcpy with strcpy_s (SLR)",
	} {
		fs, err := Analyze(context.Background(), "f.c", src, Options{Backend: be})
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if len(fs) != 1 || fs[0].SuggestedFix != want {
			t.Fatalf("%s: findings %v, want one with fix %q", be, fs, want)
		}
	}
}

// TestSTRDecidesSafeSourceAlikeAcrossDialects: STR after SLR replaces a
// variable the dialect's safe call only reads, whatever the dialect.
func TestSTRDecidesSafeSourceAlikeAcrossDialects(t *testing.T) {
	src := "char g[32];\nvoid f(void) {\n    char src[16] = \"hello\";\n    strcpy(g, src);\n}\n"
	for _, be := range backend.Names() {
		rep, err := Fix(context.Background(), "f.c", src, Options{SelectOffset: -1, Backend: be})
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if rep.SLR.AppliedCount() != 1 || rep.STR.Candidates() != 1 || rep.STR.AppliedCount() != 1 {
			t.Fatalf("%s: SLR %d applied, STR %d/%d applied; want 1, 1/1: %+v",
				be, rep.SLR.AppliedCount(), rep.STR.AppliedCount(), rep.STR.Candidates(), rep.STR.Vars)
		}
	}
}
