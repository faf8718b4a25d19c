package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/samate"
	"repro/internal/stralloc"
)

// samateCorpus returns the SAMATE corpus as batch inputs: the full
// 4,505 programs normally, a stride-10 sample under -short.
func samateCorpus(t testing.TB) []FileInput {
	t.Helper()
	stride := 1
	if testing.Short() {
		stride = 10
	}
	var inputs []FileInput
	for _, cwe := range samate.CWEs {
		progs := samate.Generate(cwe, samate.TableIIICounts[cwe])
		for i := 0; i < len(progs); i += stride {
			inputs = append(inputs, FileInput{Filename: progs[i].ID + ".c", Source: progs[i].Source})
		}
	}
	return inputs
}

// refixInput prepares a fixed program for a second Fix pass: STR output
// references the stralloc typedef that normally arrives with the
// support code, so re-parsing needs the declarations prepended. The
// header is declarations only — no function bodies, no char arrays —
// so it adds nothing either transformation could touch.
func refixInput(fixed string) string {
	if strings.Contains(fixed, "stralloc") {
		return stralloc.Header() + "\n" + fixed
	}
	return fixed
}

// TestFixIdempotentOnSAMATE is the differential fixpoint suite: over
// the full SAMATE corpus, Fix(Fix(x)) == Fix(x) — a second pass over
// already-hardened output must change nothing (no re-rewritten calls,
// no re-replaced variables, byte for byte).
func TestFixIdempotentOnSAMATE(t *testing.T) {
	inputs := samateCorpus(t)
	opts := Options{SelectOffset: -1}

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
				t.Errorf("%s: not a fixpoint — second Fix changed the output", out.Filename)
			}
		}
	}
	if violations > 0 {
		t.Fatalf("%d/%d programs are not fixpoints", violations, len(inputs))
	}
	t.Logf("fixpoint holds on %d programs", len(inputs))
}

// TestIntflowFixDifferentialOnSAMATE: the integer-overflow oracle is an
// annotation-only pass — running Fix with `-lint -checks=buf,int` must
// leave every transformed source byte-identical to a default Fix run,
// over the SAMATE corpus plus the integer-overflow corpus (where the
// oracle actually fires).
func TestIntflowFixDifferentialOnSAMATE(t *testing.T) {
	inputs := samateCorpus(t)
	for _, cwe := range samate.IntCWEs {
		for _, p := range samate.IntGenerate(cwe, samate.IntTableCounts[cwe]) {
			inputs = append(inputs, FileInput{Filename: p.ID + ".c", Source: p.Source})
		}
	}

	base := FixAll(context.Background(), inputs, Options{SelectOffset: -1}, 0)
	withInt := FixAll(context.Background(), inputs,
		Options{SelectOffset: -1, Lint: true, Checks: "buf,int"}, 0)

	intFindings := 0
	for i := range inputs {
		if base[i].Err != nil || withInt[i].Err != nil {
			t.Fatalf("%s: errs %v / %v", inputs[i].Filename, base[i].Err, withInt[i].Err)
		}
		if base[i].Report.Source != withInt[i].Report.Source {
			t.Fatalf("%s: enabling the integer-overflow oracle changed the fix output",
				inputs[i].Filename)
		}
		for _, f := range withInt[i].Report.Findings {
			switch f.CWE {
			case 190, 191, 680:
				intFindings++
			}
		}
	}
	// The differential is only meaningful if the oracle ran: the
	// integer-overflow corpus must have produced findings.
	if intFindings == 0 {
		t.Fatal("the integer-overflow oracle produced no findings on the int corpus")
	}
	t.Logf("fix outputs identical on %d programs (%d integer findings attached)",
		len(inputs), intFindings)
}

// TestTracingDoesNotChangeOutput: attaching a Tracer is observation
// only — traced and untraced runs are byte-identical on every SAMATE
// program, and the traced run covers the pipeline's stage vocabulary.
func TestTracingDoesNotChangeOutput(t *testing.T) {
	inputs := equivCorpus(t, 200)
	plain := Options{SelectOffset: -1, Lint: true}
	tr := obs.NewTracer()
	traced := plain
	traced.Tracer = tr

	for _, in := range inputs {
		want, err := Fix(context.Background(), in.Filename, in.Source, plain)
		if err != nil {
			t.Fatalf("%s: untraced: %v", in.Filename, err)
		}
		got, err := Fix(context.Background(), in.Filename, in.Source, traced)
		if err != nil {
			t.Fatalf("%s: traced: %v", in.Filename, err)
		}
		if got.Source != want.Source {
			t.Fatalf("%s: tracing changed the output", in.Filename)
		}
		if len(got.Findings) != len(want.Findings) || len(got.Degraded) != len(want.Degraded) {
			t.Fatalf("%s: tracing changed findings/degradations", in.Filename)
		}
	}

	names := map[string]bool{}
	for _, sp := range tr.Spans() {
		names[sp.Name] = true
	}
	if len(names) < 10 {
		t.Fatalf("traced corpus run covered %d distinct stages, want >= 10: %v", len(names), names)
	}
}

// TestTracedBatchJ1vsJN: the batch pipeline under tracing stays
// equivalent across worker counts — byte-identical outputs, and the
// per-stage span counts agree (the work is the same, only its lane
// assignment differs). Run with -race this also pins the tracer's
// thread safety under the real worker pool.
func TestTracedBatchJ1vsJN(t *testing.T) {
	inputs := equivCorpus(t, 200)

	seqTr := obs.NewTracer()
	seqOpts := Options{SelectOffset: -1, Lint: true, Tracer: seqTr}
	seq := FixAll(context.Background(), inputs, seqOpts, 1)

	parTr := obs.NewTracer()
	parOpts := Options{SelectOffset: -1, Lint: true, Tracer: parTr}
	par := FixAll(context.Background(), inputs, parOpts, runtime.NumCPU())

	for i := range inputs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s: errs %v / %v", inputs[i].Filename, seq[i].Err, par[i].Err)
		}
		if seq[i].Report.Source != par[i].Report.Source {
			t.Fatalf("%s: -j1 and -jN outputs diverge under tracing", inputs[i].Filename)
		}
	}

	count := func(tr *obs.Tracer) map[string]int {
		m := map[string]int{}
		for _, st := range tr.StageStats() {
			m[st.Name] = st.Count
		}
		return m
	}
	seqCounts, parCounts := count(seqTr), count(parTr)
	if len(seqCounts) != len(parCounts) {
		t.Fatalf("stage vocabularies diverge: %v vs %v", seqCounts, parCounts)
	}
	for name, n := range seqCounts {
		if parCounts[name] != n {
			t.Fatalf("stage %q span count diverges: j1=%d jN=%d", name, n, parCounts[name])
		}
	}
	if runtime.NumCPU() > 1 {
		lanes := map[int]bool{}
		for _, sp := range parTr.Spans() {
			lanes[sp.Lane] = true
		}
		if len(lanes) < 2 {
			t.Errorf("parallel run used %d lane(s); worker lanes not propagated", len(lanes))
		}
	}
}

// TestSpansClosedOnInjectedPanic: a panic in the pipeline (fired inside
// parse, after its span opened) must not leak open spans — the parse
// and fix spans close on the unwind path and are visible in the trace.
func TestSpansClosedOnInjectedPanic(t *testing.T) {
	defer analysis.InjectFault("spanboom.c", analysis.Fault{Panic: true})()
	tr := obs.NewTracer()
	_, err := Fix(context.Background(), "spanboom.c", sample, Options{SelectOffset: -1, Tracer: tr})
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got err %v, want *fault.PanicError", err)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans() {
		names[sp.Name] = true
		if sp.Dur < 0 {
			t.Fatalf("span %q recorded negative duration", sp.Name)
		}
	}
	// A span only appears in Spans() once End ran: presence proves the
	// deferred close survived the panic.
	for _, want := range []string{obs.StageParse, obs.StageFix} {
		if !names[want] {
			t.Fatalf("span %q lost on the panic path (got %v)", want, names)
		}
	}
}

// TestBudgetExhaustionSpanAttr: a file whose solver budget runs out
// carries degraded=<reason> on the affected stage span, and the
// aggregated stage stats surface it (the -stage-stats degraded column).
func TestBudgetExhaustionSpanAttr(t *testing.T) {
	defer analysis.InjectFault("spanbudget.c", analysis.Fault{Budget: 1})()
	tr := obs.NewTracer()
	rep, err := Fix(context.Background(), "spanbudget.c", overflowing, Options{
		SelectOffset: -1,
		Lint:         true,
		DisableSLR:   true,
		DisableSTR:   true,
		Tracer:       tr,
	})
	if err != nil {
		t.Fatalf("budget exhaustion must degrade, not fail: %v", err)
	}
	if len(rep.Degraded) == 0 {
		t.Fatal("report not degraded")
	}
	var reasons []string
	for _, sp := range tr.Spans() {
		if v, ok := sp.AttrValue("degraded"); ok {
			if v == "" {
				t.Fatalf("span %q has an empty degradation reason", sp.Name)
			}
			reasons = append(reasons, sp.Name+"="+v)
		}
	}
	if len(reasons) == 0 {
		t.Fatalf("no span carries degraded=<reason>; spans: %d, report degraded: %v",
			tr.Len(), rep.Degraded)
	}
	var degradedTotal int
	for _, st := range tr.StageStats() {
		degradedTotal += st.Degraded
	}
	if degradedTotal == 0 {
		t.Fatalf("stage stats lost the degradations: %v", reasons)
	}
	if out := obs.FormatStageStats(tr.StageStats(), tr.WallClock()); !strings.Contains(out, "degraded") {
		t.Fatalf("stats table missing the degraded column:\n%s", out)
	}
}

// TestSpanClosedOnTimeout: a deadline firing mid-stage (injected delay
// inside parse) still closes the open spans, and the recorded duration
// reflects the stall.
func TestSpanClosedOnTimeout(t *testing.T) {
	defer analysis.InjectFault("spanstall.c", analysis.Fault{Delay: 5 * time.Second})()
	tr := obs.NewTracer()
	_, err := Fix(context.Background(), "spanstall.c", sample, Options{
		SelectOffset: -1,
		Timeout:      50 * time.Millisecond,
		Tracer:       tr,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got err %v, want context.DeadlineExceeded", err)
	}
	var parse *obs.Span
	spans := tr.Spans()
	for i := range spans {
		if spans[i].Name == obs.StageParse {
			parse = &spans[i]
		}
	}
	if parse == nil {
		t.Fatalf("parse span lost on the timeout path; spans: %d", len(spans))
	}
	if parse.Dur < 40*time.Millisecond {
		t.Errorf("parse span duration %v does not reflect the stall", parse.Dur)
	}
}
