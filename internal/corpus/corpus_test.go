package corpus

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cparse"
	"repro/internal/edit"
	"repro/internal/slr"
	"repro/internal/str"
	"repro/internal/stralloc"
)

func TestProjectFileCountsMatchCalibration(t *testing.T) {
	for _, p := range Generate(0) {
		if len(p.Files) != p.Calibration.CFiles {
			t.Errorf("%s: files %d, want %d", p.Name, len(p.Files), p.Calibration.CFiles)
		}
	}
}

func TestAllFilesParse(t *testing.T) {
	for _, p := range Generate(2) {
		for _, f := range p.Files {
			if _, err := cparse.Parse(f.Name, f.Source); err != nil {
				t.Fatalf("%s/%s: %v\n%s", p.Name, f.Name, err, f.Source)
			}
		}
	}
}

// aggregateSLR runs SLR over every file of a project.
func aggregateSLR(t *testing.T, p Project) (candidates, applied int, perFn map[string][2]int) {
	t.Helper()
	perFn = make(map[string][2]int)
	for _, f := range p.Files {
		snap, err := analysis.Parse(f.Name, f.Source)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		res, err := slr.NewTransformer(snap, nil).ApplyAll()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		candidates += res.Candidates()
		applied += res.AppliedCount()
		for _, s := range res.Sites {
			e := perFn[s.Function]
			if s.Applied {
				e[0]++
			}
			e[1]++
			perFn[s.Function] = e
		}
		// Transformed output must still parse (the paper: "no cases where
		// a replacement caused a compilation error").
		out, err := edit.NewScript(res.Edits...).Apply(f.Source)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if _, err := cparse.Parse(f.Name+".out", out); err != nil {
			t.Fatalf("%s transformed output does not parse: %v", f.Name, err)
		}
	}
	return candidates, applied, perFn
}

func TestTableVPerProject(t *testing.T) {
	totalCand, totalApplied := 0, 0
	for _, p := range Generate(0) {
		cand, applied, _ := aggregateSLR(t, p)
		if cand != p.Calibration.UnsafeCalls {
			t.Errorf("%s: unsafe calls %d, want %d", p.Name, cand, p.Calibration.UnsafeCalls)
		}
		if applied != p.Calibration.SLRTransformed {
			t.Errorf("%s: transformed %d, want %d", p.Name, applied, p.Calibration.SLRTransformed)
		}
		totalCand += cand
		totalApplied += applied
	}
	// Table V bottom line: 317 candidates, 259 transformed (81.7%).
	if totalCand != 317 {
		t.Errorf("total unsafe calls: %d, want 317", totalCand)
	}
	if totalApplied != 259 {
		t.Errorf("total transformed: %d, want 259", totalApplied)
	}
}

func TestFigure2PerFunction(t *testing.T) {
	perFn := make(map[string][2]int)
	for _, p := range Generate(0) {
		_, _, fnStats := aggregateSLR(t, p)
		for fn, e := range fnStats {
			agg := perFn[fn]
			agg[0] += e[0]
			agg[1] += e[1]
			perFn[fn] = agg
		}
	}
	want := map[string][2]int{
		"strcpy":   {28, 39},
		"strcat":   {8, 8},
		"sprintf":  {150, 153},
		"vsprintf": {1, 2},
		"memcpy":   {72, 115},
	}
	for fn, w := range want {
		got := perFn[fn]
		if got != w {
			t.Errorf("%s: got %d/%d, want %d/%d", fn, got[0], got[1], w[0], w[1])
		}
	}
}

func TestTableVIPerProject(t *testing.T) {
	totalCand, totalFail, totalApplied := 0, 0, 0
	for _, p := range Generate(0) {
		cand, fail, applied := 0, 0, 0
		for _, f := range p.Files {
			snap, err := analysis.Parse(f.Name, f.Source)
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			res, err := str.NewTransformer(snap).ApplyAll()
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			for _, v := range res.Vars {
				if !v.IsPointer {
					continue // Table VI counts char pointers
				}
				cand++
				if v.Applied {
					applied++
				} else if v.Reason == str.FailUserFnMayModify {
					fail++
				} else {
					t.Errorf("%s/%s var %s failed with unexpected reason %v (%s)",
						p.Name, f.Name, v.Name, v.Reason, v.Detail)
				}
			}
			out, err := edit.NewScript(res.Edits...).Apply(f.Source)
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			if res.AppliedCount() > 0 {
				out = stralloc.Header() + "\n" + out
			}
			if _, err := cparse.Parse(f.Name+".out", out); err != nil {
				t.Fatalf("%s STR output does not parse: %v", f.Name, err)
			}
		}
		if cand != p.Calibration.STRCandidates {
			t.Errorf("%s: STR candidates %d, want %d", p.Name, cand, p.Calibration.STRCandidates)
		}
		if fail != p.Calibration.STRFailed {
			t.Errorf("%s: STR interproc failures %d, want %d", p.Name, fail, p.Calibration.STRFailed)
		}
		if applied != p.Calibration.STRReplaced {
			t.Errorf("%s: STR replaced %d, want %d", p.Name, applied, p.Calibration.STRReplaced)
		}
		totalCand += cand
		totalFail += fail
		totalApplied += applied
	}
	// Table VI bottom line: 296 candidates, 59 interproc failures, 237
	// replaced (100% of those passing preconditions).
	if totalCand != 296 || totalFail != 59 || totalApplied != 237 {
		t.Errorf("totals: cand=%d fail=%d replaced=%d, want 296/59/237",
			totalCand, totalFail, totalApplied)
	}
}

func TestSLRFailureTaxonomy(t *testing.T) {
	// Section IV-B: exactly one aliased-struct case, one array-of-buffers
	// case, one ternary case; the rest are unreachable allocations.
	counts := make(map[string]int)
	for _, p := range Generate(0) {
		for _, f := range p.Files {
			snap, err := analysis.Parse(f.Name, f.Source)
			if err != nil {
				t.Fatal(err)
			}
			res, err := slr.NewTransformer(snap, nil).ApplyAll()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.Sites {
				if s.Failure != nil {
					counts[s.Failure.Reason.String()]++
				}
			}
		}
	}
	if counts["buffer is aliased"] != 1 {
		t.Errorf("aliased failures: %d, want 1 (%v)", counts["buffer is aliased"], counts)
	}
	if counts["buffer is an element of an array of buffers"] != 1 {
		t.Errorf("array-of-buffers failures: %d, want 1", counts["buffer is an element of an array of buffers"])
	}
	if counts["definition is a ternary expression with allocations"] != 1 {
		t.Errorf("ternary failures: %d, want 1", counts["definition is a ternary expression with allocations"])
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 58 {
		t.Errorf("total failures: %d, want 58 (%v)", total, counts)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(1)
	b := Generate(1)
	for i := range a {
		if len(a[i].Files) != len(b[i].Files) {
			t.Fatal("nondeterministic file counts")
		}
		for j := range a[i].Files {
			if a[i].Files[j].Source != b[i].Files[j].Source {
				t.Fatalf("nondeterministic source: %s/%s", a[i].Name, a[i].Files[j].Name)
			}
		}
	}
}
