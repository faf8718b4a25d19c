// Package cfix is the public API of the buffer-overflow-fixing library —
// a reproduction of "Automatically Fixing C Buffer Overflows Using Program
// Transformations" (DSN 2014).
//
// The two entry points mirror the paper's workflow:
//
//   - Fix applies the SAFE LIBRARY REPLACEMENT and SAFE TYPE REPLACEMENT
//     transformations to a preprocessed C translation unit, either in
//     batch (all eligible sites/variables) or case-by-case (a selected
//     call expression), and reports every decision.
//
//   - Run executes a translation unit under the checked interpreter,
//     returning the program's output together with any memory-safety
//     violations (classified by CWE) — the oracle used to demonstrate
//     that a fix removed an overflow without changing normal behavior.
//
//   - Analyze runs the static overflow oracle — an interprocedural
//     interval analysis — and returns CWE-classified findings without
//     executing or transforming the program: it is Fix with both
//     repairs off.
//
// A typical quickstart:
//
//	report, err := cfix.Fix("prog.c", source, cfix.Options{})
//	if err != nil { ... }
//	fmt.Println(report.Summary())
//	fmt.Println(report.Source) // the fixed C source
package cfix

import (
	"context"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/cinterp"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/harness"
	"repro/internal/overflow"
	"repro/internal/stralloc"
	"repro/internal/typecheck"
)

// Options configures Fix. The zero value runs both transformations in
// batch mode without emitting support code.
type Options struct {
	// DisableSLR skips SAFE LIBRARY REPLACEMENT.
	DisableSLR bool
	// DisableSTR skips SAFE TYPE REPLACEMENT.
	DisableSTR bool
	// SelectOffset restricts SLR to the call expression covering this
	// byte offset; use -1 (or leave 0 with SelectAll) for batch mode.
	SelectOffset int
	// SelectAll forces batch mode (the default when SelectOffset is 0).
	SelectAll bool
	// EmitSupport prepends the stralloc library and glib prototypes so
	// the output is a self-contained translation unit.
	EmitSupport bool
	// Lint additionally runs the static overflow oracle on the input and
	// attaches its verdicts to the SLR/STR candidate reports, ranking the
	// summary by risk. The findings land in Report.Findings.
	Lint bool
	// Checks selects which static-analysis oracles lint runs: "buf" (the
	// buffer-overflow oracle), "int" (the integer-overflow oracle,
	// CWE-190/191/680 with suggested precondition guards), "all", or a
	// comma list. Empty means "buf", the historical behavior.
	Checks string
	// Backend names the safe-function dialect SLR rewrites to: "glib"
	// (g_strlcpy and friends, the paper's default), "bsd"
	// (strlcpy/strlcat), or "c11k" (C11 Annex K strcpy_s and friends,
	// with the destination size before the source). Empty means glib;
	// unknown names fail the request. See Backends.
	Backend string
	// Timeout bounds the processing of one file; 0 means none. On expiry
	// the in-flight analysis is interrupted at its next iteration
	// boundary and the file fails with context.DeadlineExceeded.
	Timeout time.Duration
	// Budget bounds every fixpoint solver's iterations and the number of
	// interprocedural contexts explored per file; 0 means unlimited.
	// Exhausted budgets degrade to conservative results recorded in
	// Report.Degraded — never a silently clean report.
	Budget int
	// KeepGoing returns partial results instead of an error when a later
	// pipeline stage fails: an SLR-only report if STR crashes, an
	// untransformed lint report if SLR crashes. The skipped stages are
	// explained in Report.Degraded. Cancellation and timeouts still fail
	// the file.
	KeepGoing bool
	// Cache, when non-nil, serves repeated identical requests from a
	// content-addressed result cache instead of re-running the pipeline
	// (Report.Cached marks a hit), and collapses concurrent identical
	// requests into one computation. Share one ResultCache across calls;
	// see NewResultCache.
	Cache *ResultCache
	// Tracer, when non-nil, records one span per pipeline stage with
	// monotonic timings and attributes (file, solver effort, degradation
	// reason) — the observability layer behind `cfix -trace` and
	// `-stage-stats`. Tracing never changes a result; see NewTracer.
	Tracer *Tracer
}

// Report is the outcome of Fix. See core.Report for field semantics.
type Report = core.Report

// coreOptions translates the public options to the composition root's.
func coreOptions(opts Options) core.Options {
	sel := -1
	if !opts.SelectAll && opts.SelectOffset > 0 {
		sel = opts.SelectOffset
	}
	return core.Options{
		DisableSLR:   opts.DisableSLR,
		DisableSTR:   opts.DisableSTR,
		SelectOffset: sel,
		EmitSupport:  opts.EmitSupport,
		Lint:         opts.Lint,
		Checks:       opts.Checks,
		Backend:      opts.Backend,
		Timeout:      opts.Timeout,
		Budget:       opts.Budget,
		KeepGoing:    opts.KeepGoing,
		Cache:        opts.Cache.internal(),
		Tracer:       opts.Tracer,
	}
}

// lintOptions translates the public options of a lint run: the
// composition root's LintOptions decides what a lint run is.
func lintOptions(opts Options) core.Options { return core.LintOptions(coreOptions(opts)) }

// Fix applies the transformations to source (a preprocessed C translation
// unit). filename is used in diagnostics only. The input is parsed exactly
// once into a shared analysis-facts snapshot that lint, SLR and (when SLR
// leaves the text unchanged) STR all consume. SLR and STR decide each
// site and variable and return edits; Fix splices those edits into
// Report.Source, the one transformed text a report carries.
func Fix(filename, source string, opts Options) (*Report, error) {
	return FixContext(context.Background(), filename, source, opts)
}

// FixContext is Fix with cooperative cancellation: ctx is polled at
// every solver iteration boundary, so cancelling it (or exceeding
// Options.Timeout) interrupts even a pathological analysis promptly and
// returns the context's error.
func FixContext(ctx context.Context, filename, source string, opts Options) (*Report, error) {
	return core.Fix(ctx, filename, source, coreOptions(opts))
}

// FileInput names one translation unit for batch processing.
type FileInput = core.FileInput

// FileOutput pairs one batch input with its fix outcome.
type FileOutput = core.FileOutput

// FixAll applies Fix to every input through a bounded worker pool and
// returns per-file outcomes in input order — the whole-project batch mode
// behind `cfix -j N file1.c file2.c ...`. Each file gets its own analysis
// snapshot, so outputs are byte-identical to sequential Fix calls.
// workers <= 0 means one worker per CPU.
func FixAll(files []FileInput, opts Options, workers int) []FileOutput {
	return FixAllContext(context.Background(), files, opts, workers)
}

// FixAllContext is FixAll with cooperative cancellation. Each file is
// its own fault boundary: one file's panic, timeout or budget
// exhaustion lands in that file's FileOutput.Err (or Report.Degraded)
// without disturbing its batch-mates; cancelling ctx fails the files
// not yet started with the context error.
func FixAllContext(ctx context.Context, files []FileInput, opts Options, workers int) []FileOutput {
	return core.FixAll(ctx, files, coreOptions(opts), workers)
}

// AnalyzeAllContext is Analyze over every input through FixAll's
// bounded worker pool and per-file fault containment, returning per-file
// reports in input order. workers <= 0 means one worker per CPU.
func AnalyzeAllContext(ctx context.Context, files []FileInput, opts Options, workers int) []FileOutput {
	return core.FixAll(ctx, files, lintOptions(opts), workers)
}

// Finding is one statically diagnosed buffer overflow: a CWE class
// (121/122/124/126/127/242), a severity (definite when the access
// provably exceeds every size the object can have, possible when the
// computed intervals merely overlap), the source extent, and the
// would-be SLR/STR repair.
type Finding = overflow.Finding

// Severity re-exports the finding severity scale.
type Severity = overflow.Severity

// Severity levels.
const (
	SevPossible = overflow.SevPossible
	SevDefinite = overflow.SevDefinite
)

// CWEName returns the short official name of a supported CWE id.
func CWEName(cwe int) string { return overflow.CWEName(cwe) }

// Analyze statically diagnoses buffer overflows in source (a preprocessed
// C translation unit) without transforming or executing it: it is
// FixContext with both repairs off, batch mode and no support code, so
// Report.Source is source itself. Report.Findings come back deduplicated,
// in source order; Report.Degraded qualifies them, and Report.Cached
// marks a cache hit. Options.Checks selects the oracles, and
// Options.Timeout and Options.Budget bound the analysis. filename is used
// in diagnostics only.
func Analyze(ctx context.Context, filename, source string, opts Options) (*Report, error) {
	return core.Fix(ctx, filename, source, lintOptions(opts))
}

// RunResult is the outcome of executing a program under the checked
// interpreter.
type RunResult struct {
	// Stdout is the program's printed output.
	Stdout string
	// Return is the entry function's return value.
	Return int64
	// Violations lists detected memory-safety events in order, each
	// carrying its CWE class (121/122/124/126/127 for the overflow
	// classes the paper evaluates, plus 416/476/...).
	Violations []cinterp.Violation
	// Steps counts interpreted evaluation steps (a machine-independent
	// cost measure).
	Steps int64
}

// Safe reports whether the run completed without memory-safety events.
func (r *RunResult) Safe() bool { return len(r.Violations) == 0 }

// Run executes entry() in source under the checked interpreter. stdin
// lines feed gets/fgets.
func Run(filename, source, entry string, stdin []string) (*RunResult, error) {
	unit, err := cparse.Parse(filename, source)
	if err != nil {
		return nil, fmt.Errorf("cfix: parse: %w", err)
	}
	typecheck.Check(unit)
	in, err := cinterp.New(unit, cinterp.Limits{})
	if err != nil {
		return nil, fmt.Errorf("cfix: %w", err)
	}
	in.SetStdin(stdin)
	res, err := in.Run(entry)
	if err != nil {
		return nil, fmt.Errorf("cfix: run: %w", err)
	}
	return &RunResult{
		Stdout:     res.Stdout,
		Return:     res.Return,
		Violations: res.Violations,
		Steps:      in.Steps(),
	}, nil
}

// Violation re-exports the checked interpreter's event type.
type Violation = cinterp.Violation

// Verdict re-exports the end-to-end verification outcome: pre/post
// execution results, per-transformation counts, and the three judgments
// (VulnDetected, Fixed, Preserved).
type Verdict = harness.Verdict

// Verify runs the paper's full evaluation protocol on one program: execute
// goodEntry and badEntry under the checked interpreter, apply SLR then STR
// in batch mode, re-execute, and judge whether the bad function's overflow
// was fixed and the good function's behavior preserved. stdin lines are
// re-queued before every run.
func Verify(filename, source, goodEntry, badEntry string, stdin []string) (*Verdict, error) {
	return harness.Verify(filename, source, goodEntry, badEntry, harness.Options{Stdin: stdin})
}

// SupportSource returns the C support code transformed programs may need:
// the stralloc header and implementation plus prototypes for the
// glib-style safe functions (the default backend).
func SupportSource() string {
	return stralloc.FullSource() + "\n" + backend.Glib.Prototypes()
}

// Backends lists the valid Options.Backend names in registry order:
// glib, bsd, c11k.
func Backends() []string { return backend.Names() }

// CanonicalBackend validates a backend name and returns its canonical
// form ("" canonicalizes to "glib"). The error names the valid set —
// CLIs surface it verbatim at flag-parse time.
func CanonicalBackend(name string) (string, error) { return backend.Canonical(name) }

// CanonicalChecks validates a lint check selection ("buf", "int", "all"
// or a comma list; empty selects "buf") and returns its canonical form.
// It is the one check-name validator: CLIs call it at flag-parse time
// and cfixd before any parse, and the error names the valid set.
func CanonicalChecks(checks string) (string, error) { return core.CanonicalChecks(checks) }
