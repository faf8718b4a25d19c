package experiments

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/samate"
)

// tableIIITotal is the number of programs in the paper's Table III.
const tableIIITotal = 4505

// TestFullCorpusRQ1 verifies the paper's headline RQ1 claim over the
// complete 4,505-program corpus: every bad function overflows before
// transformation, none does afterwards, and every good function's output
// is preserved. Takes ~8s; skipped under -short.
func TestFullCorpusRQ1(t *testing.T) {
	if testing.Short() {
		t.Skip("full 4,505-program corpus; run without -short")
	}
	total, failures := 0, 0
	for _, cwe := range samate.CWEs {
		progs := samate.Generate(cwe, samate.TableIIICounts[cwe])
		for _, p := range progs {
			total++
			v, err := harness.Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad",
				harness.Options{Stdin: stdinFor(p)})
			if err != nil {
				failures++
				t.Errorf("%s sink=%s flow=%s: %v", p.ID, p.Sink, p.Flow, err)
				continue
			}
			if !v.VulnDetected || !v.Fixed || !v.Preserved {
				failures++
				t.Errorf("%s sink=%s flow=%s: detected=%v fixed=%v preserved=%v (postBad=%v)",
					p.ID, p.Sink, p.Flow, v.VulnDetected, v.Fixed, v.Preserved,
					v.PostBad.Violations)
			}
			if failures > 20 {
				t.Fatalf("too many failures; aborting after %d/%d programs", total, tableIIITotal)
			}
		}
	}
	if total != tableIIITotal {
		t.Fatalf("processed %d programs, want %d", total, tableIIITotal)
	}
}
