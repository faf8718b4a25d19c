package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/buflen"
	"repro/internal/cpp"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/overflow"
	"repro/internal/rewrite"
	"repro/internal/slr"
	"repro/internal/str"
)

// This file is the project-mode pipeline: the same transformations as
// Fix/Analyze, but run on preprocessed text (internal/cpp) while editing
// the text the user wrote. The analyses see what the compiler sees —
// headers inlined, macros expanded, conditionals resolved — and every
// resulting edit is remapped through the preprocessor's source map back
// into the original file. Edits that land inside a macro expansion or an
// included header cannot be applied in place; their whole repair group
// (one SLR call site, one STR function) is declined with an explicit
// failure reason rather than silently miswriting the user's text.

// IncludeHash fingerprints the content of every file the preprocessor
// inlined besides the main file. It feeds Options.IncludeHash so cache
// keys and round fingerprints change when a header changes. Empty when
// the translation unit is self-contained.
func IncludeHash(res *cpp.Result) string {
	main := res.Map.MainFile()
	var lines []string
	for _, name := range res.Map.Files() {
		if name == main {
			continue
		}
		content, _ := res.Map.FileContent(name)
		sum := sha256.Sum256([]byte(content))
		lines = append(lines, name+"="+hex.EncodeToString(sum[:8]))
	}
	if len(lines) == 0 {
		return ""
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:8])
}

// remapEdits maps each edit's extent from preprocessed coordinates back
// into the main original file. An edit remaps cleanly when the source
// map proves byte-exactness and the target is the main file (not a
// header). Owner groups containing any unclean edit are declined
// wholesale — a repair is all-or-nothing — and reported in declined as
// owner -> human-readable reason. Ownerless edits are declined
// individually.
func remapEdits(edits []rewrite.Edit, m *cpp.SourceMap) (kept []rewrite.Edit, declined map[string]string) {
	declined = make(map[string]string)
	type mapped struct {
		edit rewrite.Edit
		ok   bool
	}
	ms := make([]mapped, 0, len(edits))
	for _, e := range edits {
		org, exact := m.ToOriginal(e.Extent)
		ok := exact && org.File == m.MainFile()
		if !ok {
			reason := "maps into included file " + org.File
			if org.Macro != "" {
				reason = "maps into expansion of macro " + org.Macro
			} else if org.File == m.MainFile() {
				reason = "does not map byte-exactly to the original text"
			}
			if _, dup := declined[e.Owner]; !dup {
				declined[e.Owner] = reason
			}
		}
		re := e
		re.Extent = org.Extent
		ms = append(ms, mapped{edit: re, ok: ok})
	}
	for _, me := range ms {
		if !me.ok {
			continue
		}
		if _, bad := declined[me.edit.Owner]; bad && me.edit.Owner != "" {
			continue
		}
		kept = append(kept, me.edit)
	}
	return kept, declined
}

// remapFindings rewrites finding locations from preprocessed coordinates
// to original ones: Pos becomes the original position (for macro
// expansions, the invocation site) and Extent the tightest original
// range the map knows.
func remapFindings(fs []overflow.Finding, m *cpp.SourceMap) {
	for i := range fs {
		if !fs[i].Extent.IsValid() {
			continue
		}
		org, _ := m.ToOriginal(fs[i].Extent)
		fs[i].Pos = m.Position(fs[i].Extent.Pos)
		fs[i].Extent = org.Extent
	}
}

// cppDegradations renders preprocessor diagnostics and truncations as
// report degradations, so conditional-evaluation failures or a blown
// expansion budget never read as a clean analysis.
func cppDegradations(res *cpp.Result) []string {
	var out []string
	for _, e := range res.Errors {
		out = append(out, "cpp: "+e)
	}
	for _, miss := range res.Missing {
		out = append(out, "cpp: include not resolved (passed through): "+miss)
	}
	return out
}

// ParsePreprocessed is the front half of project mode: it preprocesses
// one unit and parses the result under opts' budget and seeds. ctx
// should already carry the unit's deadline (FileContext). The error
// names the step that failed ("preprocess: ..." or "parse: ...").
func ParsePreprocessed(ctx context.Context, filename, source string, cppOpts cpp.Options, opts Options) (pp *cpp.Result, snap *analysis.Snapshot, err error) {
	defer fault.Recover(&err)
	pp, err = cpp.Preprocess(filename, source, cppOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("preprocess: %w", err)
	}
	snap, err = analysis.ParseCtx(ctx, filename, pp.Text, opts.analysisConfig(ctx))
	if err != nil {
		return pp, nil, fmt.Errorf("parse: %w", err)
	}
	return pp, snap, nil
}

// AnalyzeParsed is the lint body of project mode: it runs the oracles
// over snap, the parse of pp, and returns findings located in the
// ORIGINAL source coordinates (macro-expanded findings point at the
// invocation site). snap must come from ParsePreprocessed under the same
// opts, and ctx should carry the unit's deadline. Caching (opts.Cache)
// keys on the preprocessed text plus IncludeHash, so a header edit
// invalidates every includer.
func AnalyzeParsed(ctx context.Context, filename string, pp *cpp.Result, snap *analysis.Snapshot, opts Options) (rep *LintReport, err error) {
	defer fault.Recover(&err)
	cs, err := parseChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	if _, err := backend.Canonical(opts.Backend); err != nil {
		return nil, err
	}
	opts.IncludeHash = IncludeHash(pp)
	rep, _, err = cachedLint(ctx, filename, pp.Text, opts, func() (*LintReport, error) {
		sp := opts.Tracer.Start(ctx, obs.StageLint, filename)
		defer sp.End()
		return lintReport(snap, cs, sp), nil
	})
	if err != nil {
		return nil, err
	}
	remapFindings(rep.Findings, pp.Map)
	rep.Degraded = dedupStrings(append(rep.Degraded, cppDegradations(pp)...))
	return rep, nil
}

// FixPreprocessed is Fix in project mode: it preprocesses and parses the
// unit (ParsePreprocessed) and runs FixParsed on the result, under one
// per-file deadline. The returned cpp.Result is the preprocess of the
// unmodified input.
func FixPreprocessed(ctx context.Context, filename, source string, cppOpts cpp.Options, opts Options) (*Report, *cpp.Result, error) {
	ctx, cancel := FileContext(ctx, opts)
	defer cancel()
	pp, snap, err := ParsePreprocessed(ctx, filename, source, cppOpts, opts)
	if err != nil {
		return nil, pp, fmt.Errorf("core: %w", err)
	}
	rep, err := FixParsed(ctx, filename, source, cppOpts, pp, snap, opts)
	return rep, pp, err
}

// FixParsed is the fix body of project mode: it runs lint + SLR + STR on
// snap, the parse of pp, and applies the surviving repairs to source,
// the ORIGINAL text the user wrote. snap must come from
// ParsePreprocessed under the same opts and cppOpts, and ctx should
// carry the unit's deadline.
//
// The two transformation rounds mirror fix(): SLR analyzes snap, its
// remapped edits are applied to the original, and STR analyzes a second
// preprocess of that already-SLR-repaired original, so its analysis sees
// exactly the text its own edits will land in.
//
// Differences from Fix, all forced by coordinate remapping:
//   - Options.SelectOffset is not supported (it addresses original
//     coordinates; the transformer works in preprocessed ones) and
//     returns an error when >= 0.
//   - Repairs whose edits land inside macro expansions or included
//     headers are declined with FailMacroOrHeader instead of applied.
//   - Options.Cache is not consulted (the two-round shape does not fit
//     the single-payload result cache).
//
// Report positions (sites, variables, findings) are in original
// coordinates, and so is text: SLR.NewSource is source with the SLR
// repairs applied, STR.NewSource is Report.Source before any support
// code is prepended.
func FixParsed(ctx context.Context, filename, source string, cppOpts cpp.Options, pp *cpp.Result, snap *analysis.Snapshot, opts Options) (rep *Report, err error) {
	defer fault.Recover(&err)
	if opts.SelectOffset >= 0 {
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

	fileSpan := opts.Tracer.Start(ctx, obs.StageFix, filename)
	defer fileSpan.End()

	rep = &Report{Source: source, Backend: be.Name()}

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

	// Round 1: SLR on snap; survivors edit the original.
	current := source
	if !opts.DisableSLR {
		slrErr := stage(func() error {
			sp := opts.Tracer.Start(ctx, obs.StageSLR, filename)
			defer sp.End()
			res, err := slr.NewTransformerSnapBackend(snap, be).ApplyAll()
			if err != nil {
				sp.Attr("error", firstLine(err))
				return err
			}
			// Findings and sites are both in preprocessed coordinates
			// here, so extent-overlap attachment stays sound.
			res.AttachFindings(rep.Findings)
			kept, declined := remapEdits(res.Edits, pp.Map)
			declineSites(res, declined)
			out, err := applyRemapped(current, kept)
			if err != nil {
				return fmt.Errorf("apply remapped SLR edits: %w", err)
			}
			remapSites(res, pp.Map)
			res.NewSource = out
			rep.SLR = res
			rep.NeedsGlib = res.NeedsGlib && res.AppliedCount() > 0
			current = out
			sp.Attr("sites", fmt.Sprint(res.Candidates())).
				Attr("applied", fmt.Sprint(res.AppliedCount())).
				Attr("declined", fmt.Sprint(len(declined)))
			return nil
		})
		if slrErr != nil {
			if !opts.KeepGoing {
				return nil, fmt.Errorf("core: SLR: %w", slrErr)
			}
			rep.SLR = nil
			current = source
			rep.Degraded = append(rep.Degraded, "SLR skipped: "+firstLine(slrErr))
		}
	}

	// Round 2: STR on a fresh preprocess of the (possibly SLR-repaired)
	// original, so its edits remap through a map that matches the text
	// they will be applied to.
	if !opts.DisableSTR {
		strErr := stage(func() error {
			sp := opts.Tracer.Start(ctx, obs.StageSTR, filename)
			defer sp.End()
			pp2 := pp
			strSnap := snap
			if current != source {
				var err error
				pp2, err = cpp.Preprocess(filename, current, cppOpts)
				if err != nil {
					return fmt.Errorf("re-preprocess for STR: %w", err)
				}
				strSnap, err = analysis.ParseCtx(ctx, filename, pp2.Text, opts.analysisConfig(ctx))
				if err != nil {
					return fmt.Errorf("parse for STR: %w", err)
				}
				sp.Attr("reparsed", "true")
			}
			res, err := str.NewTransformerSnap(strSnap).ApplyAll()
			if err != nil {
				sp.Attr("error", firstLine(err))
				return err
			}
			res.AttachFindings(rep.Findings)
			kept, declined := remapEdits(res.Edits, pp2.Map)
			declineVars(res, declined)
			out, err := applyRemapped(current, kept)
			if err != nil {
				return fmt.Errorf("apply remapped STR edits: %w", err)
			}
			remapVars(res, pp2.Map)
			res.NewSource = out
			rep.STR = res
			rep.NeedsStralloc = res.NeedsStralloc && res.AppliedCount() > 0
			current = out
			rep.Degraded = append(rep.Degraded, strSnap.Degradations()...)
			sp.Attr("vars", fmt.Sprint(res.Candidates())).
				Attr("applied", fmt.Sprint(res.AppliedCount())).
				Attr("declined", fmt.Sprint(len(declined)))
			return nil
		})
		if strErr != nil {
			if !opts.KeepGoing {
				return nil, fmt.Errorf("core: STR: %w", strErr)
			}
			rep.STR = nil
			rep.Degraded = append(rep.Degraded, "STR skipped: "+firstLine(strErr))
		}
	}

	if len(rep.Findings) > 0 {
		remapFindings(rep.Findings, pp.Map)
	}
	rep.Source = current
	rep.Degraded = append(rep.Degraded, snap.Degradations()...)
	rep.Degraded = append(rep.Degraded, cppDegradations(pp)...)
	rep.Degraded = dedupStrings(rep.Degraded)
	if len(rep.Degraded) > 0 {
		fileSpan.Attr("degraded", rep.Degraded[0])
	}

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

// applyRemapped splices already-remapped edits into the original text.
func applyRemapped(src string, edits []rewrite.Edit) (string, error) {
	if len(edits) == 0 {
		return src, nil
	}
	var set rewrite.Set
	for _, e := range edits {
		set.Add(e)
	}
	return set.Apply(src)
}

// declineSites downgrades every applied SLR site whose owner group was
// declined by remapping to a FailMacroOrHeader failure.
func declineSites(res *slr.FileResult, declined map[string]string) {
	if len(declined) == 0 {
		return
	}
	for i := range res.Sites {
		owner := fmt.Sprintf("site:%d", i)
		reason, bad := declined[owner]
		if !bad || !res.Sites[i].Applied {
			continue
		}
		res.Sites[i].Applied = false
		res.Sites[i].Failure = &buflen.Failure{Reason: buflen.FailMacroOrHeader, Detail: reason}
	}
}

// declineVars downgrades every replaced STR variable whose function's
// owner group was declined by remapping.
func declineVars(res *str.FileResult, declined map[string]string) {
	if len(declined) == 0 {
		return
	}
	for i := range res.Vars {
		v := &res.Vars[i]
		reason, bad := declined["func:"+v.Func]
		if !bad || !v.Applied {
			continue
		}
		v.Applied = false
		v.Reason = str.FailMacroOrHeader
		v.Detail = reason
	}
}

// remapSites rewrites SLR site locations into original coordinates.
func remapSites(res *slr.FileResult, m *cpp.SourceMap) {
	for i := range res.Sites {
		s := &res.Sites[i]
		if !s.Extent.IsValid() {
			continue
		}
		org, _ := m.ToOriginal(s.Extent)
		s.Pos = m.Position(s.Extent.Pos)
		s.Extent = org.Extent
	}
}

// remapVars rewrites STR variable locations into original coordinates.
func remapVars(res *str.FileResult, m *cpp.SourceMap) {
	for i := range res.Vars {
		v := &res.Vars[i]
		if !v.Extent.IsValid() {
			continue
		}
		org, _ := m.ToOriginal(v.Extent)
		v.Pos = m.Position(v.Extent.Pos)
		v.Extent = org.Extent
	}
}
