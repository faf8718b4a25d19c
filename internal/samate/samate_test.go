package samate

import (
	"strings"
	"testing"

	"repro/internal/cparse"
	"repro/internal/harness"
)

func TestTableIIICountsMatchPaper(t *testing.T) {
	want := map[int]int{121: 1877, 122: 890, 124: 680, 126: 416, 127: 624, 242: 18}
	for cwe, n := range want {
		if TableIIICounts[cwe] != n {
			t.Errorf("CWE-%d count: got %d, want %d", cwe, TableIIICounts[cwe], n)
		}
	}
	if n := totalPrograms(); n != 4505 {
		t.Fatalf("total: got %d, want 4505", n)
	}
}

// totalPrograms sums the Table III counts.
func totalPrograms() int {
	total := 0
	for _, n := range TableIIICounts {
		total += n
	}
	return total
}

func TestGenerateExactCounts(t *testing.T) {
	for _, cwe := range CWEs {
		n := TableIIICounts[cwe]
		progs := Generate(cwe, n)
		if len(progs) != n {
			t.Errorf("CWE-%d: generated %d, want %d", cwe, len(progs), n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(121, 50)
	b := Generate(121, 50)
	for i := range a {
		if a[i].Source != b[i].Source || a[i].ID != b[i].ID {
			t.Fatalf("generation must be deterministic (program %d differs)", i)
		}
	}
}

func TestUniqueIDs(t *testing.T) {
	progs := Generate(121, 200)
	seen := make(map[string]bool, len(progs))
	for _, p := range progs {
		if seen[p.ID] {
			t.Fatalf("duplicate program ID %s", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestSLRSubsetCounts(t *testing.T) {
	// Table III: SLR applies to 1,096 / 644 / 18 programs of CWEs
	// 121/122/242.
	for cwe, want := range SLRApplicableCounts {
		progs := Generate(cwe, TableIIICounts[cwe])
		got := 0
		for _, p := range progs {
			if p.SLRTargeted {
				got++
			}
		}
		if got != want {
			t.Errorf("CWE-%d SLR-targeted: got %d, want %d", cwe, got, want)
		}
	}
}

func TestAllProgramsParse(t *testing.T) {
	// Parse a deterministic slice of every CWE's corpus (full-corpus
	// parsing is covered by the experiments harness).
	for _, cwe := range CWEs {
		n := TableIIICounts[cwe]
		if n > 120 {
			n = 120
		}
		for _, p := range Generate(cwe, n) {
			if _, err := cparse.Parse(p.ID+".c", p.Source); err != nil {
				t.Fatalf("%s does not parse: %v\n%s", p.ID, err, p.Source)
			}
		}
	}
}

// stdinFor supplies input lines for gets/fgets programs.
func stdinFor(p Program) []string {
	if p.CWE != 242 {
		return nil
	}
	long := strings.Repeat("Q", 120)
	return []string{long, long}
}

// verifySample runs the full harness protocol over the first k programs of
// each CWE.
func verifySample(t *testing.T, k int) {
	t.Helper()
	for _, cwe := range CWEs {
		n := TableIIICounts[cwe]
		if n > k {
			n = k
		}
		for _, p := range Generate(cwe, n) {
			v, err := harness.Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad",
				harness.Options{Stdin: stdinFor(p)})
			if err != nil {
				t.Fatalf("%s: %v\n%s", p.ID, err, p.Source)
			}
			if !v.VulnDetected {
				t.Errorf("%s: bad function did not trigger a violation\n%s", p.ID, p.Source)
				continue
			}
			if !v.Fixed {
				t.Errorf("%s: vulnerability not fixed after transformation; post-bad events: %v\n--- transformed ---\n%s",
					p.ID, v.PostBad.Violations, v.TransformedSource)
			}
			if !v.Preserved {
				t.Errorf("%s: good behavior not preserved (pre=%q post=%q, events=%v)\n--- transformed ---\n%s",
					p.ID, v.PreGood.Stdout, v.PostGood.Stdout, v.PostGood.Violations, v.TransformedSource)
			}
		}
	}
}

func TestSampleProgramsFixedAndPreserved(t *testing.T) {
	// Every (sink × flow) combination appears within the first
	// len(flows)*len(sinks) programs because flows iterate fastest after
	// sinks; 100 per CWE covers all sinks with several flows each.
	verifySample(t, 60)
}

func TestBadFunctionsDetectExpectedCWE(t *testing.T) {
	// The violation class of each program's bad function should match its
	// CWE for the write/read direction cases (the checked interpreter
	// distinguishes all five classes of Table III).
	for _, cwe := range []int{121, 122, 124, 126, 127} {
		p := Generate(cwe, 1)[0]
		v, err := harness.Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad",
			harness.Options{Stdin: stdinFor(p), SkipSLR: true, SkipSTR: true})
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		found := false
		for _, viol := range v.PreBad.Violations {
			if viol.CWE == cwe {
				found = true
			}
		}
		if !found {
			t.Errorf("CWE-%d program %s: violations %v lack the expected class",
				cwe, p.ID, v.PreBad.Violations)
		}
	}
}

func TestGoodFunctionsClean(t *testing.T) {
	for _, cwe := range CWEs {
		n := 24
		if TableIIICounts[cwe] < n {
			n = TableIIICounts[cwe]
		}
		for _, p := range Generate(cwe, n) {
			v, err := harness.Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad",
				harness.Options{Stdin: stdinFor(p), SkipSLR: true, SkipSTR: true})
			if err != nil {
				t.Fatalf("%s: %v", p.ID, err)
			}
			if v.PreGood.HasViolations() {
				t.Errorf("%s: good function must be violation-free, got %v\n%s",
					p.ID, v.PreGood.Violations, p.Source)
			}
		}
	}
}

func TestProgramLOCReasonable(t *testing.T) {
	p := Generate(121, 1)[0]
	if p.LOC() < 15 || p.LOC() > 120 {
		t.Fatalf("program LOC out of expected range: %d", p.LOC())
	}
}

func TestFlowVariantsAllUsed(t *testing.T) {
	progs := Generate(121, 400)
	flows := make(map[string]bool)
	for _, p := range progs {
		flows[p.Flow] = true
	}
	if len(flows) != len(_flows) {
		t.Fatalf("flow variants used: %d, want %d", len(flows), len(_flows))
	}
}
