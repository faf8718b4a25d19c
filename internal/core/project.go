package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/buflen"
	"repro/internal/cpp"
	"repro/internal/ctoken"
	"repro/internal/edit"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/slr"
	"repro/internal/str"
)

// This file holds what project mode adds to the fix body (FixParsed) and
// the lint body: the transformations run on preprocessed text
// (internal/cpp) while editing the text the user wrote. The analyses see
// what the compiler sees — headers inlined, macros expanded, conditionals
// resolved — and every resulting edit is remapped through the
// preprocessor's source map back into the original file. Edits that land
// inside a macro expansion or an included header cannot be applied in
// place; their whole repair group (one SLR call site, one STR function)
// is declined with an explicit failure reason rather than silently
// miswriting the user's text.

// remapEdits maps each delta's extent from preprocessed coordinates back
// into the main original file and applies the deltas that survive to
// src, the original text. A delta remaps cleanly when the source map
// proves byte-exactness and the target is the main file (not a header).
// Owner groups containing any unclean delta are declined wholesale — a
// repair is all-or-nothing — and reported in declined as owner ->
// human-readable reason. Ownerless deltas are declined individually.
func remapEdits(src string, deltas []edit.Delta, m *cpp.SourceMap) (out string, declined map[string]string, err error) {
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
	if len(kept) == 0 {
		return src, declined, nil
	}
	out, err = edit.Splice(src, edit.Sort(kept))
	return out, declined, err
}

// remapLoc rewrites one location from preprocessed coordinates to
// original ones: pos becomes the original position (for macro
// expansions, the invocation site) and ext the tightest original range
// the map knows. Invalid extents stay as they are.
func remapLoc(m *cpp.SourceMap, pos *ctoken.Position, ext *ctoken.Extent) {
	if !ext.IsValid() {
		return
	}
	org, _ := m.ToOriginal(*ext)
	*pos = m.Position(ext.Pos)
	*ext = org.Extent
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
// keys on the preprocessed text, which holds every header line the unit
// expands, so a header edit invalidates every includer.
func AnalyzeParsed(ctx context.Context, filename string, pp *cpp.Result, snap *analysis.Snapshot, opts Options) (rep *LintReport, err error) {
	defer fault.Recover(&err)
	cs, err := parseChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	if _, err := backend.Canonical(opts.Backend); err != nil {
		return nil, err
	}
	rep, err = cached(ctx, "lint", filename, pp.Text, opts, func() (*LintReport, error) {
		sp := opts.Tracer.Start(ctx, obs.StageLint, filename)
		defer sp.End()
		return lintReport(snap, cs, sp), nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rep.Findings {
		remapLoc(pp.Map, &rep.Findings[i].Pos, &rep.Findings[i].Extent)
	}
	rep.Degraded = dedupStrings(append(rep.Degraded, cppDegradations(pp)...))
	return rep, nil
}

// remapSites moves every SLR site into original coordinates and
// downgrades each applied site whose owner group remapping declined to a
// FailMacroOrHeader failure.
func remapSites(res *slr.FileResult, declined map[string]string, m *cpp.SourceMap) {
	for i := range res.Sites {
		s := &res.Sites[i]
		if reason, bad := declined[fmt.Sprintf("site:%d", i)]; bad && s.Applied {
			s.Applied = false
			s.Failure = &buflen.Failure{Reason: buflen.FailMacroOrHeader, Detail: reason}
		}
		remapLoc(m, &s.Pos, &s.Extent)
	}
}

// remapVars moves every STR variable into original coordinates and
// downgrades each replaced variable whose function's owner group
// remapping declined.
func remapVars(res *str.FileResult, declined map[string]string, m *cpp.SourceMap) {
	for i := range res.Vars {
		v := &res.Vars[i]
		if reason, bad := declined["func:"+v.Func]; bad && v.Applied {
			v.Applied = false
			v.Reason = str.FailMacroOrHeader
			v.Detail = reason
		}
		remapLoc(m, &v.Pos, &v.Extent)
	}
}
