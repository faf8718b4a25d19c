package harness

import (
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/samate"
)

// TestVerifyBackendDialects runs the full protocol under each
// non-default dialect on the twin program: the bad function's overflow
// is fixed and the good function's behavior is preserved regardless of
// which safe library the rewrite targets — the checked interpreter
// models all of them.
func TestVerifyBackendDialects(t *testing.T) {
	cases := []struct {
		backend string
		call    string
	}{
		{"bsd", "strlcpy("},
		{"c11k", "strcpy_s("},
	}
	for _, c := range cases {
		t.Run(c.backend, func(t *testing.T) {
			v, err := Verify("prog", twinProgram, "prog_good", "prog_bad",
				Options{Backend: c.backend})
			if err != nil {
				t.Fatal(err)
			}
			if !v.VulnDetected {
				t.Fatal("bad function must overflow pre-transform")
			}
			if !v.Fixed {
				t.Fatalf("bad function must be clean post-transform: %v", v.PostBad.Violations)
			}
			if !v.Preserved {
				t.Fatalf("good output must be preserved: pre=%q post=%q",
					v.PreGood.Stdout, v.PostGood.Stdout)
			}
			if !strings.Contains(v.TransformedSource, c.call) {
				t.Fatalf("%s dialect not applied:\n%s", c.backend, v.TransformedSource)
			}
		})
	}
}

// TestVerifyBackendGetsDialects pins the stdin-consuming rewrites: both
// the fgets-based dialects and gets_s consume exactly one line and
// print the same bounded content, so Preserved holds across dialects.
func TestVerifyBackendGetsDialects(t *testing.T) {
	src := `
void g_good(void) {
    char buf[64];
    fgets(buf, sizeof(buf), stdin);
    printf("%s", buf);
}
void g_bad(void) {
    char buf[8];
    gets(buf);
    printf("%s\n", buf);
}
`
	for _, backend := range []string{"bsd", "c11k"} {
		t.Run(backend, func(t *testing.T) {
			v, err := Verify("g", src, "g_good", "g_bad", Options{
				Backend: backend,
				Stdin:   []string{"hello input", "a very long attacking line"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !v.VulnDetected || !v.Fixed || !v.Preserved {
				t.Fatalf("verdict: fixed=%v preserved=%v (postBad=%v)",
					v.Fixed, v.Preserved, v.PostBad.Violations)
			}
		})
	}
}

// TestVerifyGetsLoopC11K: gets_s drops the newline itself, so c11k
// still fixes gets in a loop condition, and the loop body sees each
// line, the empty one included, exactly as gets gave it.
func TestVerifyGetsLoopC11K(t *testing.T) {
	src := `
void l_good(void) {
    char c[64];
    while (gets(c)) { printf("[%s]\n", c); }
}
void l_bad(void) {
    char c[8];
    while (gets(c)) { printf("[%s]\n", c); }
}
`
	v, err := Verify("l", src, "l_good", "l_bad", Options{
		Backend: "c11k",
		Stdin:   []string{"", "short", "a very long attacking line"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.VulnDetected || !v.Fixed || !v.Preserved {
		t.Fatalf("verdict: fixed=%v preserved=%v (postBad=%v)\npre=%q post=%q",
			v.Fixed, v.Preserved, v.PostBad.Violations, v.PreGood.Stdout, v.PostGood.Stdout)
	}
	if v.PreGood.Stdout != "[]\n[short]\n[a very long attacking line]\n" {
		t.Fatalf("good output: %q", v.PreGood.Stdout)
	}
	if strings.Count(v.TransformedSource, "while (gets_s(c, sizeof(c)))") != 2 {
		t.Fatalf("c11k did not fix both loops:\n%s", v.TransformedSource)
	}
}

// TestVerifyBackendSAMATESubset is the per-dialect interpreter
// equivalence sweep: over a strided SAMATE sample covering every CWE
// class, each dialect's transformed programs must fix every detected
// overflow and preserve every good function's output — the same claims
// Table III makes for glib.
func TestVerifyBackendSAMATESubset(t *testing.T) {
	if testing.Short() {
		t.Skip("SAMATE sweep skipped under -short")
	}
	for _, backend := range []string{"bsd", "c11k"} {
		t.Run(backend, func(t *testing.T) {
			var programs, vulnDetected, fixed, preserved int
			for _, cwe := range samate.CWEs {
				progs := samate.Generate(cwe, samate.TableIIICounts[cwe])
				for i := 0; i < len(progs); i += 10 {
					p := progs[i]
					var stdin []string
					if p.CWE == 242 {
						long := strings.Repeat("Q", 120)
						stdin = []string{long, long}
					}
					v, err := Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad",
						Options{Backend: backend, Stdin: stdin})
					if err != nil {
						t.Fatalf("%s: %v", p.ID, err)
					}
					programs++
					if v.VulnDetected {
						vulnDetected++
						if !v.Fixed {
							t.Errorf("%s: overflow not fixed under %s: %v",
								p.ID, backend, v.PostBad.Violations)
						}
					}
					if v.Fixed {
						fixed++
					}
					if v.Preserved {
						preserved++
					} else {
						t.Errorf("%s: good behavior not preserved under %s: pre=%q post=%q",
							p.ID, backend, v.PreGood.Stdout, v.PostGood.Stdout)
					}
				}
			}
			if programs < 200 {
				t.Fatalf("sample too small: %d programs, want >= 200", programs)
			}
			if vulnDetected == 0 {
				t.Fatal("no program overflowed pre-transform; the sweep proves nothing")
			}
			t.Logf("%s: %d programs, %d vulnerable, %d fixed, %d preserved",
				backend, programs, vulnDetected, fixed, preserved)
		})
	}
}

// TestVerifySLRContextShapes runs SLR alone on calls whose statement
// runs them zero or more times, or whose body is no block, under every
// dialect. The output re-parses (the post runs parse it), a run that does
// not overflow prints the same before and after, and the overflowing run
// is fixed unless its site declines.
func TestVerifySLRContextShapes(t *testing.T) {
	shapes := []struct{ name, src string }{
		// The clamp must not move before a statement that may skip the
		// call: s(20, 0) copies nothing and prints 20.
		{"memcpy_and_operand", `
void s(int n, int x) {
    char a[8];
    char b[32];
    memset(b, 'A', 32);
    x && memcpy(a, b, n);
    printf("%d\n", n);
}
void s_good(void) { s(20, 0); s(4, 1); }
void s_bad(void) { s(20, 1); }
`},
		{"memcpy_cond_arm", `
void s(int n, int x) {
    char a[8];
    char b[32];
    memset(b, 'A', 32);
    x ? memcpy(a, b, n) : 0;
    printf("%d\n", n);
}
void s_good(void) { s(20, 0); s(4, 1); }
void s_bad(void) { s(20, 1); }
`},
		// Nor before a loop whose body changes the length the post
		// clause copies.
		{"memcpy_for_post", `
void s(int n) {
    char a[8];
    char b[32];
    int i;
    memset(b, 'A', 32);
    for (i = 0; i < 3; memcpy(a, b, n)) {
        n = n - 2;
        i++;
    }
    printf("%d\n", n);
}
void s_good(void) { s(10); }
void s_bad(void) { s(20); }
`},
		// The newline strip must stay under the case label.
		{"gets_unbraced_case", `
void s(int n) {
    char buf[16];
    strcpy(buf, "x\n");
    switch (n) case 1: gets(buf);
    printf("[%s]\n", buf);
}
void s_good(void) { s(2); s(1); }
void s_bad(void) { s(1); s(1); }
`},
	}
	for _, be := range backend.Names() {
		for _, sh := range shapes {
			t.Run(be+"/"+sh.name, func(t *testing.T) {
				v, err := Verify("s", sh.src, "s_good", "s_bad", Options{
					Backend: be,
					SkipSTR: true,
					Stdin:   []string{"hello", "a very long attacking line"},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !v.VulnDetected {
					t.Fatal("bad run must overflow before the fix")
				}
				if !v.Preserved {
					t.Fatalf("good run changed: pre=%q post=%q (%v)\n%s",
						v.PreGood.Stdout, v.PostGood.Stdout, v.PostGood.Violations, v.TransformedSource)
				}
				if !v.Fixed && v.SLRApplied == v.SLRSites {
					t.Fatalf("applied fix left %v\n%s", v.PostBad.Violations, v.TransformedSource)
				}
			})
		}
	}
}
