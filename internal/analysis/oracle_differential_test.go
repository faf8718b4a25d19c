package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/cparse"
	"repro/internal/digest"
	"repro/internal/fault"
	"repro/internal/intflow"
	"repro/internal/overflow"
	"repro/internal/samate"
)

// oracleDigestPath holds one line per (corpus, option set): the number
// of lines rendered and the SHA-256 of the rendering.
var oracleDigestPath = filepath.Join("testdata", "oracle_findings.digest")

// oracleUnit is one translation unit of the differential's inputs.
type oracleUnit struct{ name, source string }

// dedupProbe makes both oracles merge duplicate findings: copy and
// narrow overflow under two calling contexts each, and local's
// subtraction wraps (a CWE-190 with no guard) before its conversion to
// short wraps at the same extent (a CWE-190 with a guard).
const dedupProbe = `
short narrow(int a, int b) {
    short s = a - b;
    return s;
}
short local(void) {
    int a = 2147483647;
    int b = -10;
    short s = a - b;
    return s;
}
void copy(char *d, int n) {
    memset(d, 0, n);
}
void one(void) {
    char buf[8];
    copy(buf, 4);
    copy(buf, 12);
    narrow(2147483647, -10);
}
void two(void) {
    char small[4];
    copy(small, 9);
    narrow(-2147483647, 10);
}
`

// oracleCorpora returns the differential's inputs by corpus name: every
// SAMATE program, the integer-overflow corpus, the libtiff fixture (the
// corpus project's units plus the tiff2pdf CVE miniature), and the
// dedup probe.
func oracleCorpora() map[string][]oracleUnit {
	out := make(map[string][]oracleUnit)
	add := func(corp string, byCWE map[int][]samate.Program) {
		cwes := make([]int, 0, len(byCWE))
		for cwe := range byCWE {
			cwes = append(cwes, cwe)
		}
		sort.Ints(cwes)
		for _, cwe := range cwes {
			for _, p := range byCWE[cwe] {
				out[corp] = append(out[corp], oracleUnit{p.ID + ".c", p.Source})
			}
		}
	}
	add("samate", samate.GenerateAll())
	add("int", samate.IntGenerateAll())
	if p, ok := corpus.ProjectByName("libtiff", 0); ok {
		for _, f := range p.Files {
			out["libtiff"] = append(out["libtiff"], oracleUnit{f.Name, f.Source})
		}
	}
	out["libtiff"] = append(out["libtiff"], oracleUnit{"tiff2pdf.c", corpus.LibtiffCVESource})
	out["probe"] = []oracleUnit{{"dedup.c", dedupProbe}}
	return out
}

// oracleOptionSets are the oracle configurations the differential runs:
// the defaults, a step budget small enough to degrade solves, a context
// budget small enough to cut the interprocedural pass, and no
// interprocedural pass at all.
var oracleOptionSets = []string{"default", "steps20", "contexts3", "depth0"}

func oracleOptions(set string) (overflow.Options, intflow.Options) {
	o, i := overflow.DefaultOptions(), intflow.DefaultOptions()
	switch set {
	case "steps20":
		o.Limits, i.Limits = fault.Limits{Steps: 20}, fault.Limits{Steps: 20}
	case "contexts3":
		o.Limits, i.Limits = fault.Limits{Contexts: 3}, fault.Limits{Contexts: 3}
	case "depth0":
		o.ContextDepth, i.ContextDepth = 0, 0
	}
	return o, i
}

// renderOracles writes every finding of both oracles on one unit, one
// JSON line each (CWE, severity, extent, function, object, contexts,
// guard, message, fix, degraded), followed by each oracle's
// degradation notes.
func renderOracles(t *testing.T, w io.Writer, u oracleUnit, set string) {
	t.Helper()
	tu, err := cparse.Parse(u.name, u.source)
	if err != nil {
		t.Fatalf("%s: parse: %v", u.name, err)
	}
	o, i := oracleOptions(set)
	s := New(tu, Config{Overflow: &o, Intflow: &i})
	ovf := s.Findings()
	ovfDeg := s.Degradations()
	ints := s.IntFindings()
	intDeg := s.Degradations()[len(ovfDeg):]
	fmt.Fprintf(w, "== %s %s\n", u.name, set)
	for _, part := range []struct {
		oracle   string
		findings []overflow.Finding
		deg      []string
	}{{"overflow", ovf, ovfDeg}, {"intflow", ints, intDeg}} {
		for _, f := range part.findings {
			line, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(w, "%s %s\n", part.oracle, line)
		}
		for _, d := range part.deg {
			fmt.Fprintf(w, "%s degraded: %s\n", part.oracle, d)
		}
	}
}

// TestOracleFindingsDigest holds both oracles' findings and degradation
// notes, over the SAMATE corpus, the integer-overflow corpus and the
// libtiff fixture under each option set, to the digests committed in
// testdata. It is the refactoring net under the oracles' shared engine:
// any change to what either oracle reports, how it degrades, or how it
// merges duplicate findings changes a digest.
func TestOracleFindingsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential")
	}
	corpora := oracleCorpora()
	names := make([]string, 0, len(corpora))
	for name := range corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	var sections []digest.Section
	for _, corp := range names {
		for _, set := range oracleOptionSets {
			var sb strings.Builder
			for _, u := range corpora[corp] {
				renderOracles(t, &sb, u, set)
			}
			sections = append(sections, digest.Section{Key: corp + "/" + set, Dump: sb.String()})
		}
	}
	digest.Check(t, oracleDigestPath, sections)
}
