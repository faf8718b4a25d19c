package samate

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/cpp"
)

// TestCppDifferentialEquivalence is the project-mode safety net: every
// one of the corpus's 4505 programs routed through internal/cpp must
// yield byte-identical preprocessed text (the programs are directive-
// free, and the preprocessor copies verbatim between interesting
// points), a single exact mapping segment, and — through the full
// project pipeline — a byte-identical report to the direct path under
// every option set below: fixed source, findings, summary, and the JSON
// of the whole Report (sites, variables, link requirements,
// degradations). Any divergence means the preprocessor or the extent
// remapping changed an analysis result, which project mode must never
// do on plain input.
func TestCppDifferentialEquivalence(t *testing.T) {
	optSets := []core.Options{
		{Lint: true, SelectOffset: -1},
		{Lint: true, Checks: "all", EmitSupport: true, Backend: "bsd", KeepGoing: true, SelectOffset: -1},
		{Lint: true, Budget: 20, SelectOffset: -1},
		{DisableSLR: true, Lint: true, Checks: "int", SelectOffset: -1},
	}
	checked := 0
	for cwe, n := range TableIIICounts {
		progs := Generate(cwe, n)
		if testing.Short() && len(progs) > 25 {
			progs = progs[:25]
		}
		for _, p := range progs {
			name := p.ID + ".c"
			pp, err := cpp.Preprocess(name, p.Source, cpp.Options{})
			if err != nil {
				t.Fatalf("%s: preprocess: %v", name, err)
			}
			if pp.Text != p.Source {
				t.Fatalf("%s: preprocessed text differs from source", name)
			}
			if segs := pp.Map.Segments(); len(segs) != 1 || segs[0].Kind != cpp.SegDirect {
				t.Fatalf("%s: expected one direct segment, got %+v", name, segs)
			}

			for i, opts := range optSets {
				direct, err := core.Fix(context.Background(), name, p.Source, opts)
				if err != nil {
					t.Fatalf("%s: options %d: direct fix: %v", name, i, err)
				}
				viaCpp, err := fixViaCpp(name, p.Source, opts)
				if err != nil {
					t.Fatalf("%s: options %d: project fix: %v", name, i, err)
				}
				if direct.Source != viaCpp.Source {
					t.Fatalf("%s: options %d: fixed source differs:\n--- direct ---\n%s\n--- via cpp ---\n%s",
						name, i, direct.Source, viaCpp.Source)
				}
				df, _ := json.Marshal(direct.Findings)
				vf, _ := json.Marshal(viaCpp.Findings)
				if string(df) != string(vf) {
					t.Fatalf("%s: options %d: findings differ:\ndirect: %s\nvia cpp: %s", name, i, df, vf)
				}
				if direct.Summary() != viaCpp.Summary() {
					t.Fatalf("%s: options %d: summaries differ:\n%s\nvs\n%s", name, i, direct.Summary(), viaCpp.Summary())
				}
				dr, _ := json.Marshal(direct)
				vr, _ := json.Marshal(viaCpp)
				if string(dr) != string(vr) {
					t.Fatalf("%s: options %d: reports differ:\ndirect: %s\nvia cpp: %s", name, i, dr, vr)
				}
				checked++
			}
		}
	}
	if want := TotalPrograms() * len(optSets); !testing.Short() && checked != want {
		t.Fatalf("checked %d comparisons, want %d (%d programs x %d option sets)",
			checked, want, TotalPrograms(), len(optSets))
	}
	t.Logf("differential held over %d comparisons", checked)
}

// fixViaCpp runs one program the way project mode runs a unit: under one
// per-file deadline, preprocess and parse it, then run the fix body on
// that parse with the preprocess result.
func fixViaCpp(name, source string, opts core.Options) (*core.Report, error) {
	ctx, cancel := core.FileContext(context.Background(), opts)
	defer cancel()
	pp, snap, err := core.ParsePreprocessed(ctx, name, source, cpp.Options{}, opts)
	if err != nil {
		return nil, err
	}
	return core.FixParsed(ctx, name, source, cpp.Options{}, pp, snap, opts)
}
