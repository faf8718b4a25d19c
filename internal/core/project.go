package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/buflen"
	"repro/internal/cpp"
	"repro/internal/ctoken"
	"repro/internal/fault"
	"repro/internal/slr"
	"repro/internal/str"
)

// This file holds what project mode adds to the one fix and lint body
// (FixParsed): the transformations run on preprocessed text
// (internal/cpp) while editing the text the user wrote. The analyses see
// what the compiler sees — headers inlined, macros expanded, conditionals
// resolved — and every resulting edit and finding is remapped through
// the preprocessor's source map back into the original file (applyEdits,
// the one splice, lives in core.go). Edits that land
// inside a macro expansion or an included header cannot be applied in
// place; their whole repair group (one SLR call site, one STR function)
// is declined with an explicit failure reason rather than silently
// miswriting the user's text.

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
