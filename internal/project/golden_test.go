package project

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// goldenPairs is how many cross-file overflow pairs goldenProject plants.
const goldenPairs = 4

// goldenProject is the corpus libtiff project made to need the
// preprocessor and the link: every unit includes a shared header of
// macros and prototypes, one unit copies through a header macro (a
// repair that must be declined), and goldenPairs units call a helper
// defined in another unit with a count only the header's macros prove
// too large for the caller's buffer.
func goldenProject(t *testing.T) (files, headers map[string]string) {
	t.Helper()
	p, ok := corpus.ProjectByName("libtiff", 0)
	if !ok {
		t.Fatal("corpus has no libtiff project")
	}
	var h strings.Builder
	h.WriteString("#ifndef TIFFB_H\n#define TIFFB_H\n\n#define TIFFB_NAMELEN 32\n")
	h.WriteString("#define TIFFB_COPY(d, s) strcpy(d, s)\n")
	for k := 0; k < goldenPairs; k++ {
		fmt.Fprintf(&h, "#define TIFFB_TAGBUF%d %d\n#define TIFFB_DIRCNT%d %d\n", k, 8+4*k, k, 40+8*k)
		fmt.Fprintf(&h, "void tiffb_memset%d(char *p, int v, int n);\nvoid tiffb_readdir%d(void);\n", k, k)
	}
	h.WriteString("\n#endif\n")
	headers = map[string]string{"tiffb.h": h.String()}

	srcs := make([]string, len(p.Files))
	for i, f := range p.Files {
		srcs[i] = "#include \"tiffb.h\"\n" + f.Source
	}
	srcs[0] += "\nvoid tiffb_name(const char *s) {\n    char name[TIFFB_NAMELEN];\n" +
		"    TIFFB_COPY(name, s);\n    strcpy(name, s);\n}\n"
	for k := 0; k < goldenPairs; k++ {
		def, use := (11*k+3)%len(srcs), (11*k+8)%len(srcs)
		srcs[def] += fmt.Sprintf("\nvoid tiffb_memset%d(char *p, int v, int n) {\n    int i;\n"+
			"    for (i = 0; i < n; i = i + 1) {\n        p[i] = 'x';\n    }\n}\n", k)
		srcs[use] += fmt.Sprintf("\nvoid tiffb_readdir%d(void) {\n    char tagbuf[TIFFB_TAGBUF%d];\n"+
			"    tiffb_memset%d(tagbuf, 0, TIFFB_DIRCNT%d);\n}\n", k, k, k, k)
	}
	files = make(map[string]string, len(p.Files))
	for i, f := range p.Files {
		files[f.Name] = srcs[i]
	}
	return files, headers
}

// goldenJSON serialises a project report for comparison.
func goldenJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	// One line for the edges and one per unit keeps a difference local.
	lines := []any{rep.Edges}
	for _, out := range rep.Files {
		lines = append(lines, out)
	}
	var b []byte
	for _, v := range lines {
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	return b
}

// TestProjectGolden holds project Fix and Analyze reports, under default
// options and under a budget small enough to degrade, to the reports
// committed in testdata/golden. On a difference it writes the current
// report to a temporary file; copy that over the golden only for a
// change that is meant to alter project results.
func TestProjectGolden(t *testing.T) {
	files, headers := goldenProject(t)
	cases := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{Lint: true}},
		{"budget", core.Options{Lint: true, Checks: "all", Budget: 4, KeepGoing: true}},
	}
	for _, c := range cases {
		for _, lint := range []bool{false, true} {
			mode := "fix"
			run := (*Project).Fix
			if lint {
				mode, run = "analyze", (*Project).Analyze
			}
			t.Run(mode+"_"+c.name, func(t *testing.T) {
				rep, err := run(InMemory(files, headers, nil), context.Background(), c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Edges) != goldenPairs {
					t.Fatalf("linked %d edges, want %d: %+v", len(rep.Edges), goldenPairs, rep.Edges)
				}
				got := goldenJSON(t, rep)
				path := filepath.Join("testdata", "golden", mode+"_"+c.name+".json")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) == string(want) {
					return
				}
				cur, err := os.CreateTemp("", "golden-"+mode+"_"+c.name+"-*.json")
				if err == nil {
					_, err = cur.Write(got)
					if cerr := cur.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					t.Fatalf("%s differs from the golden report%s (current report not saved: %v)", path, firstDiff(string(want), string(got)), err)
				}
				t.Fatalf("%s differs from the golden report%s\ncurrent report: %s", path, firstDiff(string(want), string(got)), cur.Name())
			})
		}
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf(" at line %d:\nwant: %s\n got: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf(": %d lines, want %d", len(gl), len(wl))
}
