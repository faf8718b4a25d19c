// Package core is the composition root for the paper's primary
// contribution: the two security-oriented program transformations that fix
// C buffer overflows at source level.
//
// It drives the full pipeline — parse, type analysis, the program analyses
// of Section III-A (control flow, reaching definitions, points-to, alias
// sets, interprocedural may-modify), then SAFE LIBRARY REPLACEMENT and
// SAFE TYPE REPLACEMENT — and returns the rewritten source together with
// per-site and per-variable reports. pkg/cfix re-exports this API for
// downstream users; cmd/cfix wraps it as a command-line tool.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/cpp"
	"repro/internal/ctoken"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/overflow"
	"repro/internal/slr"
	"repro/internal/str"
)

// Options selects which transformations run and how.
type Options struct {
	// SLR / STR toggle the transformations (both default true via Fix;
	// the zero value of Options means "run everything").
	DisableSLR bool
	DisableSTR bool
	// SelectOffset, when >= 0, restricts SLR to the call expression
	// covering that byte offset (the case-by-case workflow of Section
	// II-A2). Negative means batch mode.
	SelectOffset int
	// EmitSupport prepends the stralloc header/implementation and the
	// selected backend's prototypes the transformed file needs to build
	// standalone.
	EmitSupport bool
	// Backend names the safe-function dialect SLR rewrites to: "glib"
	// (the paper's default), "bsd" (strlcpy/strlcat), or "c11k" (C11
	// Annex K *_s). Empty means glib; unknown names are an error. Like
	// Checks, the value is canonicalized before entering the cache
	// fingerprint, so "" and "glib" share cache entries.
	Backend string
	// Lint runs the static overflow oracle on the input before
	// transforming and attaches its verdicts to the SLR/STR candidate
	// reports (SiteResult.Risk / VarResult.Risk), so the summary can rank
	// and justify the repairs.
	Lint bool
	// Checks selects which static-analysis oracles lint runs, as a
	// comma-separated list of check names: "buf" (the buffer-overflow
	// oracle, CWE-121/122/124/126/127/242), "int" (the integer-overflow
	// oracle, CWE-190/191/680), or "all" for both. Empty means "buf",
	// preserving the historical lint behavior; unknown names are an
	// error.
	Checks string
	// Timeout bounds the processing of one file; 0 means none. On
	// expiry the in-flight solve is interrupted at its next iteration
	// boundary and Fix returns context.DeadlineExceeded.
	Timeout time.Duration
	// Budget bounds every fixpoint solve's iterations and the number of
	// interprocedural contexts the overflow oracle explores; 0 means
	// unlimited. Exhausted budgets degrade to conservative results and
	// are recorded in Report.Degraded — the overflow oracle additionally
	// emits a SevPossible CWEIncomplete finding per affected function,
	// so a cut analysis never reads as a clean file.
	Budget int
	// KeepGoing degrades instead of failing when a later pipeline stage
	// errs or panics: if STR fails after SLR succeeded, Fix returns the
	// SLR-only report with the failure explained in Report.Degraded; if
	// SLR fails, the original text flows on to STR. Cancellation and
	// deadline expiry are never downgraded — they always abort the file
	// with the context's error.
	KeepGoing bool
	// Cache, when non-nil, short-circuits Fix and Analyze through the
	// content-addressed result cache: an identical (source, options,
	// filename) request is answered from the cache without parsing or
	// solving anything, and concurrent identical requests collapse into
	// one computation. Only full-fidelity results are stored — a report
	// with a non-empty Degraded list is recomputed every time (see
	// DESIGN.md Section 10 for the keying and invalidation rules). The
	// cache never changes a result, only how often it is computed.
	Cache *cache.Cache
	// ExternSeeds carries cross-translation-unit call seeds into the
	// overflow oracle (project mode, internal/project): calls observed in
	// OTHER translation units to functions this file defines, evaluated
	// under the callers' interval states. The oracle explores them as
	// extra interprocedural contexts, so a caller in a.c can expose an
	// overflow in b.c that single-file analysis misses. The seed list is
	// folded into the cache fingerprint (overflow.SeedFingerprint), so
	// per-file cache entries stay correct when the rest of the project
	// changes what it proves about this file.
	ExternSeeds []overflow.CallSeed
	// Tracer, when non-nil, records one span per pipeline stage —
	// parse, typecheck, the derived analyses, slr, str, rewrite, and
	// cache hit/miss — for `cfix -trace` / `-stage-stats` and the
	// daemon's per-stage latency histograms (DESIGN.md Section 11).
	// Tracing never changes a result; nil disables it at the cost of a
	// nil check per stage.
	Tracer *obs.Tracer
}

// Report is the combined outcome.
type Report struct {
	// Source is the transformed text.
	Source string
	// Backend is the canonical name of the repair dialect SLR targeted
	// ("glib" when Options.Backend was empty).
	Backend string
	// SLR per-site outcomes (nil when SLR was disabled).
	SLR *slr.FileResult
	// STR per-variable outcomes (nil when STR was disabled).
	STR *str.FileResult
	// NeedsGlib / NeedsStralloc describe link-time requirements when
	// EmitSupport was false.
	NeedsGlib     bool
	NeedsStralloc bool
	// Findings holds the static overflow oracle's verdicts on the input
	// source (set when Options.Lint was true).
	Findings []overflow.Finding
	// Degraded explains every way this report is weaker than a full
	// run: pipeline stages skipped under Options.KeepGoing and analysis
	// budgets that ran out (Options.Budget). Empty for a full-fidelity
	// report.
	Degraded []string
	// Cached reports that this report was answered from the result cache
	// instead of being computed (Options.Cache). Excluded from the cached
	// payload itself: a stored report is by definition not yet a hit.
	Cached bool `json:"-"`
}

// Changed reports whether any edit was applied.
func (r *Report) Changed() bool {
	return (r.SLR != nil && r.SLR.AppliedCount() > 0) ||
		(r.STR != nil && r.STR.AppliedCount() > 0)
}

// Summary renders a human-readable change log. When the overflow oracle
// ran (Options.Lint), candidate sites are ranked by static risk and each
// flagged site is justified with its verdict.
func (r *Report) Summary() string {
	var sb strings.Builder
	risk := func(f *overflow.Finding) string {
		if f == nil {
			return ""
		}
		return fmt.Sprintf(" [CWE-%d %s: %s]", f.CWE, f.Severity, f.Msg)
	}
	if r.SLR != nil {
		fmt.Fprintf(&sb, "SLR: %d/%d call sites transformed\n",
			r.SLR.AppliedCount(), r.SLR.Candidates())
		sites := r.SLR.Sites
		if len(r.Findings) > 0 {
			sites = r.SLR.RankedSites()
		}
		for _, s := range sites {
			if s.Applied {
				fmt.Fprintf(&sb, "  %s: %s -> %s (size: %s)%s\n",
					s.Pos, s.Function, s.SafeName, s.Size.CText(), risk(s.Risk))
			} else {
				fmt.Fprintf(&sb, "  %s: %s not transformed: %v%s\n", s.Pos, s.Function, s.Failure, risk(s.Risk))
			}
		}
	}
	if r.STR != nil {
		fmt.Fprintf(&sb, "STR: %d/%d variables replaced\n",
			r.STR.AppliedCount(), r.STR.Candidates())
		vars := r.STR.Vars
		if len(r.Findings) > 0 {
			vars = r.STR.RankedVars()
		}
		for _, v := range vars {
			if v.Applied {
				fmt.Fprintf(&sb, "  %s: %s replaced with stralloc%s\n", v.Pos, v.Name, risk(v.Risk))
			} else {
				fmt.Fprintf(&sb, "  %s: %s not replaced: %s (%s)%s\n", v.Pos, v.Name, v.Reason, v.Detail, risk(v.Risk))
			}
		}
	}
	for _, d := range r.Degraded {
		fmt.Fprintf(&sb, "degraded: %s\n", d)
	}
	return sb.String()
}

// checkSet is the parsed form of Options.Checks.
type checkSet struct {
	buf  bool // buffer-overflow oracle (internal/overflow)
	intf bool // integer-overflow oracle (internal/intflow)
}

// parseChecks validates and parses Options.Checks. Empty selects the
// buffer oracle alone (the historical lint behavior).
func parseChecks(s string) (checkSet, error) {
	if strings.TrimSpace(s) == "" {
		return checkSet{buf: true}, nil
	}
	var cs checkSet
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "buf":
			cs.buf = true
		case "int":
			cs.intf = true
		case "all":
			cs.buf, cs.intf = true, true
		case "":
		default:
			return checkSet{}, fmt.Errorf("core: unknown check %q (valid: buf, int, all)", strings.TrimSpace(name))
		}
	}
	if !cs.buf && !cs.intf {
		return checkSet{}, fmt.Errorf("core: no checks selected by %q", s)
	}
	return cs, nil
}

// CanonicalChecks validates a check selection ("buf", "int", "all" or a
// comma list of them; empty selects "buf") and returns its canonical
// form, so "all", "buf,int" and "int,buf" all read "buf,int". The error
// names the valid set.
func CanonicalChecks(s string) (string, error) {
	cs, err := parseChecks(s)
	switch {
	case err != nil:
		return "", err
	case cs.buf && cs.intf:
		return "buf,int", nil
	case cs.intf:
		return "int", nil
	default:
		return "buf", nil
	}
}

// canonicalChecks renders the selection in canonical form for the cache
// fingerprint. Invalid selections never reach the cache (Fix/Analyze
// fail first); the raw string is kept so the key still differs.
func canonicalChecks(s string) string {
	if c, err := CanonicalChecks(s); err == nil {
		return c
	}
	return s
}

// canonicalBackend renders Options.Backend in canonical form for the
// cache fingerprint, so "" and "glib" (and whitespace variants) share
// cache entries. Invalid names never reach the cache — Fix and Analyze
// fail first — so the raw string is kept to keep the key distinct.
func canonicalBackend(s string) string {
	name, err := backend.Canonical(s)
	if err != nil {
		return s
	}
	return name
}

// Backends lists the valid Options.Backend names in registry order.
func Backends() []string {
	return backend.Names()
}

// lintFindings runs the selected oracles over one snapshot and merges
// their findings into a single source-ordered report.
func lintFindings(snap *analysis.Snapshot, cs checkSet) []overflow.Finding {
	var fs []overflow.Finding
	if cs.buf {
		fs = append(fs, snap.Findings()...)
	}
	if cs.intf {
		fs = append(fs, snap.IntFindings()...)
	}
	if cs.buf && cs.intf {
		sortFindings(fs)
	}
	return fs
}

// LintSnapshot runs the oracles selected by checks ("buf", "int",
// "all"; empty means "buf") over an existing analysis snapshot and
// returns the merged findings in source order. It is the seam
// incremental sessions (internal/incremental) lint through: they manage
// their own parses and memoized facts, so the findings come out exactly
// as Analyze would produce them on the same text — including the
// cross-run memo's replayed results, which the equivalence suite holds
// byte-identical to a from-scratch run.
func LintSnapshot(snap *analysis.Snapshot, checks string) ([]overflow.Finding, error) {
	cs, err := parseChecks(checks)
	if err != nil {
		return nil, err
	}
	return lintFindings(snap, cs), nil
}

// sortFindings restores source order over a merged finding list.
func sortFindings(fs []overflow.Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Extent.Pos != fs[j].Extent.Pos {
			return fs[i].Extent.Pos < fs[j].Extent.Pos
		}
		return fs[i].CWE < fs[j].CWE
	})
}

// analysisConfig is the snapshot configuration o implies under ctx:
// solver limits from the budget, the tracer, and the oracle options —
// the repair dialect its fix text names and the cross-unit call seeds
// of project mode. Callers validate o.Backend first.
func (o Options) analysisConfig(ctx context.Context) analysis.Config {
	oo := overflow.DefaultOptions()
	oo.ExternSeeds = o.ExternSeeds
	oo.Backend, _ = backend.Get(o.Backend)
	return analysis.Config{
		Limits:   fault.Limits{Ctx: ctx, Steps: o.Budget, Contexts: o.Budget},
		Tracer:   o.Tracer,
		Overflow: &oo,
	}
}

// FileContext applies the per-file timeout of opts to ctx. Every entry
// point that processes one file calls it once; project mode calls it
// once per unit and runs the unit's parse, repair and link facts under
// the one deadline.
func FileContext(ctx context.Context, opts Options) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		return context.WithTimeout(ctx, opts.Timeout)
	}
	return ctx, func() {}
}

// LintReport is the full outcome of a lint-only analysis: the findings
// plus the degradations that qualify them. It is the unit the result
// cache stores for /v1/lint and `cfix -lint -cache-dir`.
type LintReport struct {
	// Findings holds the static overflow oracle's CWE-classified
	// verdicts in source order.
	Findings []overflow.Finding `json:"findings"`
	// Degraded lists the analyses that had to degrade to conservative
	// results (budget exhaustion); empty for a full-fidelity run.
	Degraded []string `json:"degraded,omitempty"`
	// Cached reports that this result came from the result cache.
	Cached bool `json:"-"`
}

// Analyze runs the static overflow oracle on one preprocessed C
// translation unit without transforming it, returning the CWE-classified
// findings in source order. Only opts.Timeout and opts.Budget are
// consulted; ctx cancellation aborts the analysis at the next solver
// iteration with the context's error. A panic anywhere in the analysis
// is contained and returned as a *fault.PanicError carrying the stack.
func Analyze(ctx context.Context, filename, source string, opts Options) ([]overflow.Finding, error) {
	rep, err := AnalyzeReport(ctx, filename, source, opts)
	if err != nil {
		return nil, err
	}
	return rep.Findings, nil
}

// AnalyzeReport is Analyze with the degradation notes that Analyze
// drops: the batch pipeline and the service stream them alongside the
// findings so a budget-cut analysis never reads as a clean file. When
// opts.Cache is set the whole report is served content-addressed.
func AnalyzeReport(ctx context.Context, filename, source string, opts Options) (*LintReport, error) {
	return cached(ctx, "lint", filename, source, opts, func() (*LintReport, error) {
		return analyzeReport(ctx, filename, source, opts)
	})
}

// analyzeReport is the uncached lint pipeline.
func analyzeReport(ctx context.Context, filename, source string, opts Options) (rep *LintReport, err error) {
	defer fault.Recover(&err)
	cs, err := parseChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	// Lint does not rewrite, but an invalid backend selection is still a
	// caller error — catch it here rather than only on the Fix path.
	if _, err := backend.Canonical(opts.Backend); err != nil {
		return nil, err
	}
	ctx, cancel := FileContext(ctx, opts)
	defer cancel()
	sp := opts.Tracer.Start(ctx, obs.StageLint, filename)
	defer sp.End()
	snap, err := analysis.ParseCtx(ctx, filename, source, opts.analysisConfig(ctx))
	if err != nil {
		return nil, fmt.Errorf("core: parse for lint: %w", err)
	}
	return lintReport(snap, cs, sp), nil
}

// lintReport runs the selected oracles over snap and records the result
// on the lint span sp.
func lintReport(snap *analysis.Snapshot, cs checkSet, sp *obs.ActiveSpan) *LintReport {
	fs := lintFindings(snap, cs)
	sp.Attr("findings", fmt.Sprint(len(fs)))
	deg := snap.Degradations()
	if len(deg) > 0 {
		sp.Attr("degraded", deg[0])
	}
	return &LintReport{Findings: fs, Degraded: deg}
}

// stage runs one pipeline stage, converting a panic inside it into an
// error so the caller can decide between failing and degrading.
// Cancellation sentinels are re-panicked: a deadline must abort the
// whole file with the context's error, never degrade into a partial
// report.
func stage(f func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if fault.AsCancellation(r) != nil {
			panic(r)
		}
		err = fault.NewPanicError(r)
	}()
	return f()
}

// Fix applies the transformations to one preprocessed C translation unit.
//
// The input is parsed exactly once into a shared analysis-facts snapshot
// (internal/analysis); lint and SLR consume the same parse, typecheck and
// derived analyses. Only when SLR actually rewrites the text does STR
// re-parse — it must analyze the post-SLR source.
//
// Fix is the pipeline's fault boundary (DESIGN.md Section 9): a panic in
// any stage is contained and returned as a *fault.PanicError carrying
// the stack, ctx cancellation or an expired Options.Timeout aborts at
// the next solver iteration with the context's error, and under
// Options.KeepGoing a failed stage degrades the report instead of
// failing the file.
func Fix(ctx context.Context, filename, source string, opts Options) (*Report, error) {
	return cached(ctx, "fix", filename, source, opts, func() (*Report, error) {
		ctx, cancel := FileContext(ctx, opts)
		defer cancel()
		return FixParsed(ctx, filename, source, cpp.Options{}, nil, nil, opts)
	})
}

// FixParsed is the one fix body: it runs lint, SLR, STR and support
// emission on snap, the parse of the analysed text, and applies the
// repairs to source, the text the user wrote. pp is the preprocess of
// source that snap parsed (ParsePreprocessed); nil means the analysed
// text is source itself, so positions and edits need no remapping. A nil
// snap is parsed here from source, under the fix span (the direct path:
// pp must then be nil too). ctx should carry the unit's deadline
// (FileContext).
//
// With a preprocess result, FixParsed differs from Fix in two ways:
//   - Options.SelectOffset >= 0 is an error: it addresses original
//     coordinates, and the transformers work in preprocessed ones.
//   - Options.Cache is not consulted: project mode caches per unit only
//     its lint report.
//
// Edits are remapped through pp's source map into source; a repair
// whose edits land inside a macro expansion or an included header is
// declined whole with FailMacroOrHeader. STR analyzes a fresh
// preprocess of the SLR-repaired source, so its edits remap through a
// map of the text they land in. Report positions are in original
// coordinates, SLR.NewSource is source with the SLR repairs applied,
// and STR.NewSource is Report.Source before support code is prepended.
func FixParsed(ctx context.Context, filename, source string, cppOpts cpp.Options, pp *cpp.Result, snap *analysis.Snapshot, opts Options) (rep *Report, err error) {
	defer fault.Recover(&err)
	if pp != nil && opts.SelectOffset >= 0 {
		return nil, fmt.Errorf("core: SelectOffset is not supported in project mode")
	}
	cs, err := parseChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	be, err := backend.Get(opts.Backend)
	if err != nil {
		return nil, err
	}

	// The file-level span closes by defer, so even a contained panic or
	// deadline cut leaves a closed span whose self time is the pipeline
	// overhead outside the traced stages.
	fileSpan := opts.Tracer.Start(ctx, obs.StageFix, filename)
	defer fileSpan.End()

	rep = &Report{Source: source, Backend: be.Name()}
	conf := opts.analysisConfig(ctx)
	if snap == nil {
		if snap, err = analysis.ParseCtx(ctx, filename, source, conf); err != nil {
			return nil, fmt.Errorf("core: parse for SLR: %w", err)
		}
	}

	if opts.Lint {
		if lintErr := stage(func() error {
			sp := opts.Tracer.Start(ctx, obs.StageLint, filename)
			defer sp.End()
			rep.Findings = lintFindings(snap, cs)
			sp.Attr("findings", fmt.Sprint(len(rep.Findings)))
			return nil
		}); lintErr != nil {
			if !opts.KeepGoing {
				return nil, fmt.Errorf("core: lint: %w", lintErr)
			}
			rep.Degraded = append(rep.Degraded, "lint skipped: "+firstLine(lintErr))
		}
	}

	if !opts.DisableSLR {
		slrErr := stage(func() error {
			sp := opts.Tracer.Start(ctx, obs.StageSLR, filename)
			defer sp.End()
			tr := slr.NewTransformer(snap, be)
			var res *slr.FileResult
			var err error
			if opts.SelectOffset >= 0 {
				res, err = tr.ApplyAt(ctoken.Pos(opts.SelectOffset))
			} else {
				res, err = tr.ApplyAll()
			}
			if err != nil {
				sp.Attr("error", firstLine(err))
				return err
			}
			// Findings and sites are both in analysed coordinates here,
			// so extent-overlap attachment stays sound.
			res.AttachFindings(rep.Findings)
			var declined map[string]string
			if pp != nil {
				if res.NewSource, declined, err = remapEdits(source, res.Edits, pp.Map); err != nil {
					return fmt.Errorf("apply remapped SLR edits: %w", err)
				}
				remapSites(res, declined, pp.Map)
			}
			res.NeedsGlib = needsLib(res, be)
			rep.SLR = res
			rep.Source = res.NewSource
			rep.NeedsGlib = res.NeedsGlib
			sp.Attr("sites", fmt.Sprint(res.Candidates())).
				Attr("applied", fmt.Sprint(res.AppliedCount()))
			if pp != nil {
				sp.Attr("declined", fmt.Sprint(len(declined)))
			}
			return nil
		})
		if slrErr != nil {
			if !opts.KeepGoing {
				return nil, fmt.Errorf("core: SLR: %w", slrErr)
			}
			// Degrade: the original text flows on to STR.
			rep.SLR = nil
			rep.Source = source
			rep.Degraded = append(rep.Degraded, "SLR skipped: "+firstLine(slrErr))
		}
	}

	if !opts.DisableSTR && opts.SelectOffset < 0 {
		strErr := stage(func() error {
			sp := opts.Tracer.Start(ctx, obs.StageSTR, filename)
			defer sp.End()
			// STR reuses the snapshot when the text is unchanged; otherwise
			// it must analyze the post-SLR source, which requires a fresh
			// parse (and, in project mode, a fresh preprocess).
			strPP, strSnap := pp, snap
			if rep.Source != source {
				text := rep.Source
				var err error
				if pp != nil {
					if strPP, err = cpp.Preprocess(filename, rep.Source, cppOpts); err != nil {
						return fmt.Errorf("re-preprocess for STR: %w", err)
					}
					text = strPP.Text
				}
				if strSnap, err = analysis.ParseCtx(ctx, filename, text, conf); err != nil {
					return fmt.Errorf("parse for STR: %w", err)
				}
				sp.Attr("reparsed", "true")
			}
			res, err := str.NewTransformer(strSnap).ApplyAll()
			if err != nil {
				sp.Attr("error", firstLine(err))
				return err
			}
			// STR may have analyzed post-SLR text; AttachFindings matches by
			// (function, variable) name, which survives the rewrite.
			res.AttachFindings(rep.Findings)
			var declined map[string]string
			if strPP != nil {
				if res.NewSource, declined, err = remapEdits(rep.Source, res.Edits, strPP.Map); err != nil {
					return fmt.Errorf("apply remapped STR edits: %w", err)
				}
				remapVars(res, declined, strPP.Map)
			}
			rep.STR = res
			rep.Source = res.NewSource
			rep.NeedsStralloc = res.NeedsStralloc && res.AppliedCount() > 0
			rep.Degraded = append(rep.Degraded, strSnap.Degradations()...)
			sp.Attr("vars", fmt.Sprint(res.Candidates())).
				Attr("applied", fmt.Sprint(res.AppliedCount()))
			if strPP != nil {
				sp.Attr("declined", fmt.Sprint(len(declined)))
			}
			return nil
		})
		if strErr != nil {
			if !opts.KeepGoing {
				return nil, fmt.Errorf("core: STR: %w", strErr)
			}
			// Degrade to the SLR-only (or untransformed) report.
			rep.STR = nil
			rep.Degraded = append(rep.Degraded, "STR skipped: "+firstLine(strErr))
		}
	}
	rep.Degraded = append(rep.Degraded, snap.Degradations()...)
	if pp != nil {
		for i := range rep.Findings {
			remapLoc(pp.Map, &rep.Findings[i].Pos, &rep.Findings[i].Extent)
		}
		rep.Degraded = append(rep.Degraded, cppDegradations(pp)...)
	}
	rep.Degraded = dedupStrings(rep.Degraded)
	if len(rep.Degraded) > 0 {
		fileSpan.Attr("degraded", rep.Degraded[0])
	}

	// The rewrite stage assembles the final text: support-code emission
	// and the transformed source concatenation.
	rw := opts.Tracer.Start(ctx, obs.StageRewrite, filename)
	if opts.EmitSupport {
		var support strings.Builder
		for _, u := range backend.SupportUnits(rep.NeedsStralloc, rep.NeedsGlib, be) {
			support.WriteString(u.Source)
			support.WriteString("\n")
		}
		if support.Len() > 0 {
			rep.Source = support.String() + rep.Source
		}
	}
	rw.Attr("changed", fmt.Sprint(rep.Changed())).End()
	return rep, nil
}

// needsLib reports whether any site SLR still applies calls a safe
// function outside the hosted C library. Declined sites need nothing.
func needsLib(res *slr.FileResult, be backend.Backend) bool {
	for _, s := range res.Sites {
		if r, ok := be.Lookup(s.Function); ok && s.Applied && r.NeedsLib {
			return true
		}
	}
	return false
}

// firstLine truncates an error to its first line: panic errors carry a
// multi-line stack that belongs in logs, not in a one-line degradation
// note (the full text stays available to callers that keep the error).
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " (stack elided)"
	}
	return s
}

// dedupStrings removes duplicates while preserving first-seen order
// (the STR snapshot can repeat the SLR snapshot's degradations when the
// text was unchanged and the snapshot was shared).
func dedupStrings(in []string) []string {
	if len(in) < 2 {
		return in
	}
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
