// Package core is the composition root for the paper's primary
// contribution: the two security-oriented program transformations that fix
// C buffer overflows at source level.
//
// It drives the full pipeline — parse, type analysis, the program analyses
// of Section III-A (control flow, reaching definitions, points-to, alias
// sets, interprocedural may-modify), then SAFE LIBRARY REPLACEMENT and
// SAFE TYPE REPLACEMENT — and returns the rewritten source together with
// per-site and per-variable reports. The transformers decide and emit
// edits; this package alone splices edits into text. pkg/cfix re-exports
// this API for downstream users; cmd/cfix wraps it as a command-line tool.
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
	"repro/internal/edit"
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
	// EmitSupport was false: the backend's library for an applied site
	// (-lglib-2.0, -lbsd or Annex K), stralloc for a replaced variable.
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

// LintOptions returns opts as a lint run uses them: the oracles on, both
// repairs off, batch mode, no support code and no KeepGoing, which a run
// without repairs never reads. A lint run is a fix run under these
// options, so every lint entry point answers and caches what Fix does.
func LintOptions(opts Options) Options {
	opts.Lint = true
	opts.DisableSLR, opts.DisableSTR = true, true
	opts.SelectOffset = -1
	opts.EmitSupport = false
	opts.KeepGoing = false
	return opts
}

// repairsOff reports whether o runs neither repair. Such a run reports
// the oracles' verdicts on the text it was given and nothing else: its
// report is keyed by that text alone, and a failed lint stage fails the
// file, because there is no repair left to degrade to.
func (o Options) repairsOff() bool { return o.DisableSLR && o.DisableSTR }

// Analyze runs the static overflow oracle on one preprocessed C
// translation unit without transforming it: Fix under LintOptions(opts),
// returning the CWE-classified findings in source order.
func Analyze(ctx context.Context, filename, source string, opts Options) ([]overflow.Finding, error) {
	rep, err := Fix(ctx, filename, source, LintOptions(opts))
	if err != nil {
		return nil, err
	}
	return rep.Findings, nil
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
	ctx, cancel := FileContext(ctx, opts)
	defer cancel()
	return FixParsed(ctx, filename, source, cpp.Options{}, nil, nil, opts)
}

// FixParsed is the one fix and lint entry: it runs lint, SLR, STR and
// support emission on snap, the parse of the analysed text, and applies
// the repairs to source, the text the user wrote. pp is the preprocess
// of source that snap parsed (ParsePreprocessed); nil means the analysed
// text is source itself, so positions and edits need no remapping. A nil
// snap is parsed here from source, under the fix span (the direct path:
// pp must then be nil too). ctx should carry the unit's deadline
// (FileContext).
//
// Options.Cache is consulted whenever the report depends on the analysed
// text alone: on the direct path, and in project mode when both repairs
// are off. Project mode keys the report on the preprocessed text, which
// holds every header line the unit expands, and applies the source-map
// remap and the preprocessor's degradations outside the cache, so the
// entry is what a direct run over that text stores. A project unit
// whose repairs run is never cached: its edits land in source through
// pp's map, which the key does not cover. Options.SelectOffset >= 0 is
// an error in project mode: it addresses original coordinates, and the
// transformers work in preprocessed ones.
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
	text := source
	if pp != nil {
		text = pp.Text
		if !opts.repairsOff() {
			opts.Cache = nil
		}
	}
	rep, err = cached(ctx, filename, text, source, opts, func() (*Report, error) {
		return fixParsed(ctx, filename, source, cppOpts, pp, snap, opts, cs, be)
	})
	if err != nil || pp == nil {
		return rep, err
	}
	for i := range rep.Findings {
		remapLoc(pp.Map, &rep.Findings[i].Pos, &rep.Findings[i].Extent)
	}
	rep.Degraded = dedupStrings(append(rep.Degraded, cppDegradations(pp)...))
	return rep, nil
}

// fixParsed is the one fix and lint body (FixParsed without the cache
// and the project-mode remap of findings). SLR and STR return decisions
// and edits; fixParsed is the only code that turns those edits into text
// (applyEdits). With a preprocess result the edits are remapped through
// pp's source map into source first, and a repair whose edits land
// inside a macro expansion or an included header is declined whole with
// FailMacroOrHeader. STR analyzes a fresh preprocess of the SLR-repaired
// source, so its edits remap through a map of the text they land in.
// Site and variable positions are in original coordinates either way.
func fixParsed(ctx context.Context, filename, source string, cppOpts cpp.Options, pp *cpp.Result, snap *analysis.Snapshot, opts Options, cs checkSet, be backend.Backend) (rep *Report, err error) {
	defer fault.Recover(&err)
	// The file-level span closes by defer, so even a contained panic or
	// deadline cut leaves a closed span whose self time is the pipeline
	// overhead outside the traced stages.
	fileSpan := opts.Tracer.Start(ctx, obs.StageFix, filename)
	defer fileSpan.End()

	rep = &Report{Source: source, Backend: be.Name()}
	conf := opts.analysisConfig(ctx)
	if snap == nil {
		if snap, err = analysis.ParseCtx(ctx, filename, source, conf); err != nil {
			first := "SLR"
			if opts.repairsOff() {
				first = "lint"
			}
			return nil, fmt.Errorf("core: parse for %s: %w", first, err)
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
			switch {
			case opts.repairsOff():
				return nil, lintErr
			case !opts.KeepGoing:
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
			text, declined, err := applyEdits(source, res.Edits, pp)
			if err != nil {
				return fmt.Errorf("apply SLR edits: %w", err)
			}
			if pp != nil {
				remapSites(res, declined, pp.Map)
			}
			rep.SLR = res
			rep.Source = text
			rep.NeedsGlib = needsLib(res, be)
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
			text, declined, err := applyEdits(rep.Source, res.Edits, strPP)
			if err != nil {
				return fmt.Errorf("apply STR edits: %w", err)
			}
			if strPP != nil {
				remapVars(res, declined, strPP.Map)
			}
			rep.STR = res
			rep.Source = text
			rep.NeedsStralloc = res.AppliedCount() > 0
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
	rep.Degraded = dedupStrings(append(rep.Degraded, snap.Degradations()...))
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

// applyEdits turns a transformation's sorted edits into text: it is the
// one place a repair is spliced. With a nil preprocess result the edits
// are in src's coordinates and apply as they are. Otherwise each delta's
// extent is first mapped from preprocessed coordinates back into the
// main original file, and the deltas that survive apply to src, the
// original text. A delta remaps cleanly when the source map proves
// byte-exactness and the target is the main file (not a header). Owner
// groups containing any unclean delta are declined wholesale — a repair
// is all-or-nothing — and reported in declined as owner ->
// human-readable reason. Ownerless deltas are declined individually.
// An empty edit list returns src unchanged.
func applyEdits(src string, deltas []edit.Delta, pp *cpp.Result) (out string, declined map[string]string, err error) {
	if pp != nil {
		m := pp.Map
		declined = make(map[string]string)
		clean := make([]edit.Delta, 0, len(deltas))
		for _, d := range deltas {
			org, exact := m.ToOriginal(d.Extent)
			if !exact || org.File != m.MainFile() {
				reason := "maps into included file " + org.File
				if org.Macro != "" {
					reason = "maps into expansion of macro " + org.Macro
				} else if org.File == m.MainFile() {
					reason = "does not map byte-exactly to the original text"
				}
				if _, dup := declined[d.Owner]; !dup {
					declined[d.Owner] = reason
				}
				continue
			}
			d.Extent = org.Extent
			clean = append(clean, d)
		}
		kept := clean[:0]
		for _, d := range clean {
			if _, bad := declined[d.Owner]; !bad || d.Owner == "" {
				kept = append(kept, d)
			}
		}
		deltas = edit.Sort(kept)
	}
	if len(deltas) == 0 {
		return src, declined, nil
	}
	out, err = edit.Splice(src, deltas)
	return out, declined, err
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
