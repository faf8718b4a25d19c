// Package repro_test hosts the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (Section IV), plus component and
// ablation benchmarks for the design choices DESIGN.md calls out. Run:
//
//	go test -bench=. -benchmem
//
// The Table/Figure benchmarks re-execute the full experiment pipeline and
// report the headline quantities via b.ReportMetric, so a bench run is
// also a reproduction run (see EXPERIMENTS.md for the recorded numbers).
package repro_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"runtime"

	"repro/internal/analysis"
	"repro/internal/cinterp"
	"repro/internal/corpus"
	"repro/internal/cparse"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/pointsto"
	"repro/internal/samate"
	"repro/internal/typecheck"
	"repro/pkg/cfix"
)

// --- Table and figure benchmarks -------------------------------------------

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.FormatTableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.FormatTableII(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIII runs the SAMATE pipeline on a 1-in-20 sample per
// iteration (the full 4,505-program corpus is the -stride 1 run of
// cmd/experiments; it verifies in ~8s).
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTableIII(experiments.TableIIIOptions{Stride: 20})
		if err != nil {
			b.Fatal(err)
		}
		var progs, fixed, preserved int
		for _, r := range rows {
			progs += r.Programs
			fixed += r.Fixed
			preserved += r.Preserved
		}
		if fixed != progs || preserved != progs {
			b.Fatalf("fixed %d / preserved %d of %d", fixed, preserved, progs)
		}
		b.ReportMetric(float64(progs), "programs/op")
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTableIV(0)
		files := 0
		for _, r := range rows {
			files += r.CFiles
		}
		if files != 645 {
			b.Fatalf("files: %d", files)
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableV()
		if err != nil {
			b.Fatal(err)
		}
		var u, tr int
		for _, r := range res.Rows {
			u += r.Unsafe
			tr += r.Transformed
		}
		if u != 317 || tr != 259 {
			b.Fatalf("%d/%d", tr, u)
		}
		b.ReportMetric(100*float64(tr)/float64(u), "%transformed")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableV()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerFunc) != 5 {
			b.Fatalf("functions: %d", len(res.PerFunc))
		}
		for _, f := range res.PerFunc {
			b.ReportMetric(float64(f.Transformed)/float64(f.Total)*100, f.Function+"%")
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTableVI()
		if err != nil {
			b.Fatal(err)
		}
		var c1, c2 int
		for _, r := range rows {
			c1 += r.Identified
			c2 += r.Replaced
		}
		if c1 != 296 || c2 != 237 {
			b.Fatalf("%d/%d", c2, c1)
		}
		b.ReportMetric(100*float64(c2)/float64(c1), "%replaced")
	}
}

func BenchmarkRQ3Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRQ3(50)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant != "original" {
				b.ReportMetric(r.OverheadPct, r.Workload+"_"+r.Variant+"_%over")
			}
		}
	}
}

func BenchmarkCVECaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCVE()
		if err != nil {
			b.Fatal(err)
		}
		if !r.Fixed || !r.Preserved {
			b.Fatal("case study regressed")
		}
	}
}

// --- Component benchmarks ----------------------------------------------------

// corpusSource concatenates a few corpus files into one large unit for
// frontend benchmarks.
func corpusSource(files int) string {
	var sb strings.Builder
	p, _ := corpus.ProjectByName("gmp", 4)
	for i := 0; i < files && i < len(p.Files); i++ {
		sb.WriteString(p.Files[i].Source)
	}
	return sb.String()
}

func BenchmarkParse(b *testing.B) {
	src := corpusSource(12)
	lines := strings.Count(src, "\n")
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cparse.Parse("bench.c", src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lines), "lines/op")
}

func BenchmarkTypecheck(b *testing.B) {
	src := corpusSource(12)
	unit, err := cparse.Parse("bench.c", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		typecheck.Check(unit)
	}
}

func BenchmarkSLRTransform(b *testing.B) {
	p, _ := corpus.ProjectByName("libtiff", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range p.Files[:10] {
			v := &harness.Verdict{}
			if _, err := harness.Transform(f.Name, f.Source, harness.Options{SkipSTR: true}, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSTRTransform(b *testing.B) {
	p, _ := corpus.ProjectByName("libtiff", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range p.Files[:10] {
			v := &harness.Verdict{}
			if _, err := harness.Transform(f.Name, f.Source, harness.Options{SkipSLR: true}, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkInterpreter(b *testing.B) {
	src := `
int main(void) {
    char buf[64];
    int i;
    unsigned long acc = 0;
    for (i = 0; i < 1000; i++) {
        buf[i % 64] = i;
        acc = acc * 31 + buf[i % 64];
    }
    printf("%lu\n", acc);
    return 0;
}
`
	unit, err := cparse.Parse("bench.c", src)
	if err != nil {
		b.Fatal(err)
	}
	typecheck.Check(unit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := cinterp.New(unit, cinterp.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := in.Run("main"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks -------------------------------------------------------

// pointerChainSource builds a unit with long copy chains and cycles to
// stress the points-to solver.
func pointerChainSource(chains, length int) string {
	var sb strings.Builder
	sb.WriteString("void f(void) {\n    int x;\n")
	for c := 0; c < chains; c++ {
		for i := 0; i <= length; i++ {
			fmt.Fprintf(&sb, "    int *c%dp%d;\n", c, i)
		}
	}
	for c := 0; c < chains; c++ {
		fmt.Fprintf(&sb, "    c%dp0 = &x;\n", c)
		for i := 1; i <= length; i++ {
			fmt.Fprintf(&sb, "    c%dp%d = c%dp%d;\n", c, i, c, i-1)
		}
		// Close a cycle.
		fmt.Fprintf(&sb, "    c%dp0 = c%dp%d;\n", c, c, length)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func benchPointsTo(b *testing.B, opts pointsto.Options) {
	src := pointerChainSource(20, 40)
	unit, err := cparse.Parse("chains.c", src)
	if err != nil {
		b.Fatal(err)
	}
	typecheck.Check(unit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := pointsto.Analyze(unit, opts)
		if len(g.Nodes) == 0 {
			b.Fatal("no nodes")
		}
	}
}

// BenchmarkAblationPointsToSequential vs NoCycleElim compare the solver
// configurations (DESIGN.md Section 6): Hardekopf's offline cycle
// elimination on and off, both on the sequential worklist.
func BenchmarkAblationPointsToSequential(b *testing.B) {
	benchPointsTo(b, pointsto.Options{})
}

func BenchmarkAblationPointsToNoCycleElim(b *testing.B) {
	benchPointsTo(b, pointsto.Options{DisableCycleElimination: true})
}

// ablationFixRate measures how many sampled SAMATE programs each
// transformation fixes alone — quantifying the paper's claim that the two
// transformations are both necessary to cover all overflow classes.
func ablationFixRate(b *testing.B, opts harness.Options) float64 {
	fixed, total := 0, 0
	for _, cwe := range samate.CWEs {
		progs := samate.Generate(cwe, samate.TableIIICounts[cwe])
		for i := 0; i < len(progs); i += 40 {
			p := progs[i]
			var stdin []string
			if p.CWE == 242 {
				long := strings.Repeat("Q", 120)
				stdin = []string{long, long}
			}
			o := opts
			o.Stdin = stdin
			v, err := harness.Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad", o)
			if err != nil {
				b.Fatal(err)
			}
			total++
			if v.Fixed {
				fixed++
			}
		}
	}
	return 100 * float64(fixed) / float64(total)
}

func BenchmarkAblationSLROnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rate := ablationFixRate(b, harness.Options{SkipSTR: true})
		b.ReportMetric(rate, "%fixed")
		if rate >= 100 {
			b.Fatal("SLR alone should not fix every class (pointer-arithmetic flaws need STR)")
		}
	}
}

func BenchmarkAblationSTROnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rate := ablationFixRate(b, harness.Options{SkipSLR: true})
		b.ReportMetric(rate, "%fixed")
	}
}

func BenchmarkAblationBothTransforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rate := ablationFixRate(b, harness.Options{})
		b.ReportMetric(rate, "%fixed")
		if rate < 100 {
			b.Fatalf("both transformations must fix all sampled programs, got %.1f%%", rate)
		}
	}
}

// BenchmarkScaleTransform runs both transformations over the GMP-like
// project inflated with filler (~100+ KLOC total) and reports throughput —
// the scalability claim behind the paper's "2.3 MLOC processed".
func BenchmarkScaleTransform(b *testing.B) {
	p, ok := corpus.ProjectByName("gmp", 30)
	if !ok {
		b.Fatal("project missing")
	}
	totalLines := 0
	for _, f := range p.Files {
		totalLines += f.LOC()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range p.Files {
			if _, err := harness.Transform(f.Name, f.Source, harness.Options{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(totalLines)/1000, "KLOC/op")
}

// --- Batch pipeline benchmarks ----------------------------------------------

// samateInputs samples the SAMATE corpus into batch inputs for the
// snapshot/batch benchmarks (~200 programs at stride covering every CWE).
func samateInputs(n int) []cfix.FileInput {
	var inputs []cfix.FileInput
	per := n/len(samate.CWEs) + 1
	for _, cwe := range samate.CWEs {
		for _, p := range samate.Generate(cwe, per) {
			inputs = append(inputs, cfix.FileInput{Filename: p.ID + ".c", Source: p.Source})
		}
	}
	return inputs
}

// BenchmarkFixSingleVsSnapshot compares the historical lint-then-fix flow
// (two separate entry points, two parses) against the snapshot-backed Fix
// with Lint enabled (one parse, shared facts) on the same program.
func BenchmarkFixSingleVsSnapshot(b *testing.B) {
	p := samate.Generate(122, 1)[0]
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfix.Analyze(context.Background(), p.ID+".c", p.Source, cfix.Options{}); err != nil {
				b.Fatal(err)
			}
			if _, err := cfix.Fix(p.ID+".c", p.Source, cfix.Options{SelectAll: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := cfix.Fix(p.ID+".c", p.Source, cfix.Options{SelectAll: true, Lint: true})
			if err != nil {
				b.Fatal(err)
			}
			_ = rep.Findings
		}
	})
}

// BenchmarkFixAllParallel measures the batch pipeline over ~200 SAMATE
// programs: one worker (sequential baseline) vs one worker per CPU. The
// acceptance claim is >= 2x on >= 4 cores.
func BenchmarkFixAllParallel(b *testing.B) {
	inputs := samateInputs(200)
	opts := cfix.Options{SelectAll: true, Lint: true}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				outs := cfix.FixAll(inputs, opts, workers)
				for _, out := range outs {
					if out.Err != nil {
						b.Fatal(out.Err)
					}
				}
			}
			b.ReportMetric(float64(len(inputs)), "programs/op")
		})
	}
}

// --- Per-stage and observability benchmarks ----------------------------------

// stageProgram returns one representative SAMATE heap-overflow program:
// it exercises every pipeline stage the tracer names — parse, the full
// analysis stack, the SLR clamp, and the STR rewrite.
func stageProgram() (string, string) {
	p := samate.Generate(122, 1)[0]
	return p.ID + ".c", p.Source
}

// BenchmarkPipelineStages isolates the stages the tracer measures, so a
// regression localized by `cfix -stage-stats` can be bisected against a
// stable per-stage baseline (`make bench` records 3 samples of each).
func BenchmarkPipelineStages(b *testing.B) {
	name, src := stageProgram()

	b.Run("parse-only", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, err := cparse.Parse(name, src); err != nil {
				b.Fatal(err)
			}
		}
	})

	// snapshot-warm measures the memoization layer itself: every fact is
	// already computed, so an iteration costs only the accessor overhead
	// the snapshot adds on the hot (already-solved) path.
	b.Run("snapshot-warm", func(b *testing.B) {
		unit, err := cparse.Parse(name, src)
		if err != nil {
			b.Fatal(err)
		}
		snap := analysis.New(unit, analysis.Config{})
		if len(snap.Findings()) == 0 { // forces the whole analysis stack once
			b.Fatal("no findings on the overflow program")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap.PointsTo()
			snap.Aliases()
			snap.CallGraph()
			snap.MayModify()
			if len(snap.Findings()) == 0 {
				b.Fatal("warm findings lost")
			}
		}
	})

	b.Run("slr-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfix.Fix(name, src, cfix.Options{SelectAll: true, DisableSTR: true}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("str-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfix.Fix(name, src, cfix.Options{SelectAll: true, DisableSLR: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsOverhead is the untraced baseline for BenchmarkTraceAttached:
// the full fix pipeline with no tracer attached.
func BenchmarkObsOverhead(b *testing.B) {
	name, src := stageProgram()
	opts := cfix.Options{SelectAll: true, Lint: true}
	for i := 0; i < b.N; i++ {
		if _, err := cfix.Fix(name, src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceAttached measures the same pipeline with a live tracer
// (created per iteration, as one CLI run would), quantifying the opt-in
// cost of -trace/-stage-stats next to BenchmarkObsOverhead's baseline.
func BenchmarkTraceAttached(b *testing.B) {
	name, src := stageProgram()
	for i := 0; i < b.N; i++ {
		opts := cfix.Options{SelectAll: true, Lint: true, Tracer: cfix.NewTracer()}
		if _, err := cfix.Fix(name, src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAliasPrecision quantifies the paper's §IV-B precision
// speculation: field-sensitive aliasing recovers the one aggregate-model
// failure at extra analysis cost.
func BenchmarkAblationAliasPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAliasPrecisionAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.AggregateTransformed), "aggregate_sites")
		b.ReportMetric(float64(r.FieldSensTransformed), "fieldsens_sites")
	}
}
