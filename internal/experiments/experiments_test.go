package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/intflow"
	"repro/internal/samate"
)

func TestTableIIISampled(t *testing.T) {
	// Stride 25 keeps the test fast (~180 programs) while touching every
	// CWE and sink; the full run is exercised by cmd/experiments and the
	// benchmarks.
	rows, err := RunTableIII(TableIIIOptions{Stride: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: got %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Errors > 0 {
			t.Errorf("CWE-%d: %d processing errors", r.CWE, r.Errors)
		}
		if r.Programs == 0 {
			t.Errorf("CWE-%d: no programs processed", r.CWE)
			continue
		}
		if r.VulnDetected != r.Programs {
			t.Errorf("CWE-%d: vulnerabilities detected in %d/%d programs",
				r.CWE, r.VulnDetected, r.Programs)
		}
		if r.Fixed != r.Programs {
			t.Errorf("CWE-%d: fixed %d/%d", r.CWE, r.Fixed, r.Programs)
		}
		if r.Preserved != r.Programs {
			t.Errorf("CWE-%d: preserved %d/%d", r.CWE, r.Preserved, r.Programs)
		}
	}
	out := FormatTableIII(rows)
	if !strings.Contains(out, "CWE 121") || !strings.Contains(out, "Total") {
		t.Fatalf("format output incomplete:\n%s", out)
	}
}

// TestTableIIIRunsNoIntegerOracle: the default fix pipeline keeps the
// integer-overflow oracle off, so a stride-20 Table III run (glib)
// costs it exactly 0 solves. The positive control runs the oracle with
// Checks "int" over the stride-20 integer-overflow corpus and must move
// the same counter, or a 0 above would show nothing.
func TestTableIIIRunsNoIntegerOracle(t *testing.T) {
	const stride = 20
	before := intflow.Solves()
	rows, err := RunTableIII(TableIIIOptions{Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	programs := 0
	for _, r := range rows {
		programs += r.Programs
	}
	if d := intflow.Solves() - before; programs == 0 || d != 0 {
		t.Fatalf("Table III over %d programs ran %d integer-oracle solves, want 0", programs, d)
	}

	before = intflow.Solves()
	for _, cwe := range samate.IntCWEs {
		progs := samate.IntGenerate(cwe, samate.IntTableCounts[cwe])
		for i := 0; i < len(progs); i += stride {
			p := progs[i]
			if _, err := core.Analyze(context.Background(), p.ID+".c", p.Source, core.Options{Checks: "int"}); err != nil {
				t.Fatalf("%s: %v", p.ID, err)
			}
		}
	}
	solves := intflow.Solves() - before
	if solves == 0 {
		t.Fatal("the integer oracle over the int corpus ran no solves")
	}
	t.Logf("Table III: %d programs, 0 integer-oracle solves; int corpus with Checks \"int\": %d solves", programs, solves)
}

func TestTableIV(t *testing.T) {
	rows := RunTableIV(0)
	if len(rows) != 4 {
		t.Fatalf("rows: got %d", len(rows))
	}
	files := 0
	for _, r := range rows {
		files += r.CFiles
	}
	if files != 645 {
		t.Fatalf("total files: got %d, want 645 (Table IV)", files)
	}
	out := FormatTableIV(rows)
	if !strings.Contains(out, "zlib") || !strings.Contains(out, "645") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestTableVAndFigure2(t *testing.T) {
	res, err := RunTableV()
	if err != nil {
		t.Fatal(err)
	}
	var u, tr int
	for _, r := range res.Rows {
		u += r.Unsafe
		tr += r.Transformed
	}
	if u != 317 || tr != 259 {
		t.Fatalf("totals: %d/%d, want 317/259", tr, u)
	}
	wantFn := map[string][2]int{
		"strcpy": {28, 39}, "strcat": {8, 8}, "sprintf": {150, 153},
		"vsprintf": {1, 2}, "memcpy": {72, 115},
	}
	for _, f := range res.PerFunc {
		w, ok := wantFn[f.Function]
		if !ok {
			t.Errorf("unexpected function %s in Figure 2", f.Function)
			continue
		}
		if f.Transformed != w[0] || f.Total != w[1] {
			t.Errorf("%s: got %d/%d, want %d/%d", f.Function, f.Transformed, f.Total, w[0], w[1])
		}
	}
	if got := FormatTableV(res); !strings.Contains(got, "81.7") && !strings.Contains(got, "81.70") {
		t.Fatalf("Table V should show 81.7%% overall:\n%s", got)
	}
	if got := FormatFigure2(res); !strings.Contains(got, "strcpy") {
		t.Fatalf("Figure 2 format:\n%s", got)
	}
	if got := FormatFailureTaxonomy(res); !strings.Contains(got, "58") {
		t.Fatalf("taxonomy should total 58:\n%s", got)
	}
}

func TestTableVI(t *testing.T) {
	rows, err := RunTableVI()
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2, c3 int
	for _, r := range rows {
		c1 += r.Identified
		c2 += r.Replaced
		c3 += r.FailedPre
	}
	if c1 != 296 || c2 != 237 || c3 != 59 {
		t.Fatalf("totals: identified=%d replaced=%d failed=%d, want 296/237/59", c1, c2, c3)
	}
	if got := FormatTableVI(rows); !strings.Contains(got, "100.00%") {
		t.Fatalf("Table VI should show 100%% of precondition-passing replaced:\n%s", got)
	}
}

func TestRQ3(t *testing.T) {
	rows, err := RunRQ3(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: got %d, want 6 (2 workloads x 3 variants)", len(rows))
	}
	for _, r := range rows {
		if r.Steps == 0 {
			t.Errorf("%s/%s: zero steps", r.Workload, r.Variant)
		}
	}
	// Overhead should stay bounded ("minimal" in the paper; the STR data
	// structure adds bookkeeping, so allow a generous envelope while
	// still asserting it is not catastrophic).
	for _, r := range rows {
		if r.Variant == "SLR" && r.OverheadPct > 25 {
			t.Errorf("%s/SLR overhead too high: %.1f%%", r.Workload, r.OverheadPct)
		}
		if r.Variant == "SLR+STR" && r.OverheadPct > 400 {
			t.Errorf("%s/SLR+STR overhead out of envelope: %.1f%%", r.Workload, r.OverheadPct)
		}
	}
	if got := FormatRQ3(rows); !strings.Contains(got, "Overhead") {
		t.Fatalf("format:\n%s", got)
	}
}

func TestCVE(t *testing.T) {
	r, err := RunCVE()
	if err != nil {
		t.Fatal(err)
	}
	if !r.VulnDetected || !r.CWE121 || !r.Fixed || !r.Preserved {
		t.Fatalf("case study failed: %+v", r)
	}
	if r.BenignOutput != "(Title 07)" {
		t.Fatalf("benign output: %q", r.BenignOutput)
	}
	if got := FormatCVE(r); !strings.Contains(got, "g_snprintf") {
		t.Fatalf("format:\n%s", got)
	}
}

func TestCatalogFormats(t *testing.T) {
	t1 := FormatTableI()
	for _, want := range []string{"strcpy", "g_strlcpy", "gets_s", "memcpy_s"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %s", want)
		}
	}
	t2 := FormatTableII()
	for _, want := range []string{"stralloc_increment_by", "Declaration", "buf->a < 3"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestAliasPrecisionAblation(t *testing.T) {
	r, err := RunAliasPrecisionAblation()
	if err != nil {
		t.Fatal(err)
	}
	if r.AggregateTransformed != 259 || r.AggregateAliasFails != 1 {
		t.Fatalf("aggregate mode: %d transformed, %d alias failures (want 259, 1)",
			r.AggregateTransformed, r.AggregateAliasFails)
	}
	// Field sensitivity recovers exactly the one aliased-struct site.
	if r.FieldSensTransformed != 260 || r.FieldSensAliasFails != 0 {
		t.Fatalf("field-sensitive mode: %d transformed, %d alias failures (want 260, 0)",
			r.FieldSensTransformed, r.FieldSensAliasFails)
	}
	if out := FormatAliasPrecision(r); !strings.Contains(out, "field-sensitive") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestLintSampled(t *testing.T) {
	// Stride 25 keeps the test fast while touching every CWE and sink;
	// the full run is exercised by cmd/experiments -lint.
	rows, err := RunLint(LintOptions{Stride: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: got %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Errors > 0 {
			t.Errorf("CWE-%d: %d processing errors", r.CWE, r.Errors)
		}
		if r.Programs == 0 {
			t.Errorf("CWE-%d: no programs processed", r.CWE)
			continue
		}
		// The acceptance bar: the static oracle misses no seeded overflow,
		// and classifies every one with the program's exact CWE.
		if r.FN != 0 {
			t.Errorf("CWE-%d: %d bad() functions missed", r.CWE, r.FN)
		}
		if r.CWEMatch != r.TP {
			t.Errorf("CWE-%d: only %d/%d flagged programs carry the exact CWE",
				r.CWE, r.CWEMatch, r.TP)
		}
		// Cross-validation: the interpreter confirms every seeded overflow,
		// so the static and dynamic oracles must agree on all of them.
		if r.Agree != r.DynBad {
			t.Errorf("CWE-%d: static oracle agrees on %d/%d interpreter-confirmed overflows",
				r.CWE, r.Agree, r.DynBad)
		}
	}
	out := FormatLint(rows)
	if !strings.Contains(out, "CWE 121") || !strings.Contains(out, "Total") {
		t.Fatalf("format output incomplete:\n%s", out)
	}
}

func TestTableIIICacheWarm(t *testing.T) {
	rows, err := RunTableIII(TableIIIOptions{Stride: 100, CacheWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ColdFix <= 0 {
			t.Errorf("CWE-%d: cold pass recorded no wall time", r.CWE)
		}
		// Every program that processed cleanly must be answered by the
		// warm pass from the cache.
		if want := r.Programs - r.Errors; r.WarmHits != want {
			t.Errorf("CWE-%d: warm hits %d, want %d", r.CWE, r.WarmHits, want)
		}
	}
	text := FormatTableIII(rows)
	if !strings.Contains(text, "Result-cache timing") {
		t.Fatalf("cache-warm section missing:\n%s", text)
	}

	// Without the flag the section stays out of the layout.
	plain, err := RunTableIII(TableIIIOptions{Stride: 100})
	if err != nil {
		t.Fatal(err)
	}
	if text := FormatTableIII(plain); strings.Contains(text, "Result-cache timing") {
		t.Fatalf("cache-warm section leaked into a plain run:\n%s", text)
	}
}
