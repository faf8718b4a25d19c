package core

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/overflow"
)

// fingerprintVersion is baked into every cache key; bump it whenever
// the transformations, the oracle, or the cached payload shape change in
// a result-affecting way, and every stale entry becomes unreachable at
// once — content-addressed caches are invalidated by construction, not
// by deletion.
// v2: the integer-overflow oracle joined the lint report (Options.Checks
// and Finding.Guard), so v1 lint entries are stale by shape and content.
// v3: SLR's repair dialect became pluggable (Options.Backend entered the
// key and Report gained Backend/SiteResult.SafeName), so v2 fix entries
// are stale by shape.
// v4: project mode — per-header content (Options.IncludeHash) and
// cross-TU call seeds (Options.ExternSeeds) entered the key, so a file
// re-fixed after another TU changed what it proves about it cannot be
// answered from a stale single-file entry. IncludeHash left the key
// again within v4: a project lint entry is keyed on the preprocessed
// text, which holds every expanded header line, and the source-map
// remap and the preprocessor's degradations are applied outside the
// cache, so the entry is what a single-file lint of that text stores.
// v5: one C library catalog (internal/backend) — a lint entry's fix text
// names the selected dialect, STR after SLR decides bsd and c11k
// variables by the catalog, and SLR declines a site whose value is used,
// so v4 entries of both kinds are stale.
// v6: one kind — a lint run is a fix run with both repairs off, so its
// entry is a whole Report keyed like any other, and a report whose text
// is the request's own stores none (entry). An older binary would read
// such an entry's text as empty.
const fingerprintVersion = "v6"

// fingerprint renders every result-affecting option into the cache key.
// Timeout is deliberately absent: a completed full-fidelity run does not
// depend on how much wall clock it was allowed (a run that exceeds its
// deadline fails and failures are never cached), so the same entry can
// serve requests with different deadlines. Budget and KeepGoing do
// shape results (degradation points) and are part of the key — though
// degraded results are never stored anyway, an in-budget clean run under
// budget B proves nothing about budget B' < B.
func (o Options) fingerprint() string {
	// Checks and Backend enter in canonical form, so "" and "buf", or ""
	// and "glib", share entries. Invalid selections reach no key: the
	// pipeline and the service tier refuse them first.
	checks, _ := CanonicalChecks(o.Checks)
	be, _ := backend.Canonical(o.Backend)
	fp := fmt.Sprintf("%s|slr=%t|str=%t|at=%d|support=%t|lint=%t|checks=%s|backend=%s|budget=%d|keep=%t",
		fingerprintVersion, o.DisableSLR, o.DisableSTR, o.SelectOffset,
		o.EmitSupport, o.Lint, checks, be, o.Budget, o.KeepGoing)
	// Project-mode inputs append only when present, so single-file keys
	// are unchanged within a fingerprint version.
	if x := overflow.SeedFingerprint(o.ExternSeeds); x != "" {
		fp += "|xtu=" + x
	}
	return fp
}

// CacheKey derives the content-addressed key for one request: the
// source text dominates (sha256 of content), the options fingerprint
// separates semantically different runs over the same text, and the
// diagnostic filename is included because reports embed it in every
// position — two identical sources under different names must not trade
// diagnostics. The fleet router consistent-hashes requests by exactly
// this key, so all identical requests land on (and warm) the same shard;
// a lint request's key is the key of its LintOptions.
func CacheKey(filename, source string, opts Options) string {
	return cache.Key(source, opts.fingerprint(), filename)
}

// entry is the stored form of a report. A report whose text is the
// request's source — every lint report, and a fix that changed nothing —
// is stored without it, so an entry never repeats the unit it answers.
type entry struct {
	*Report
	// Source shadows Report.Source: nil when the report's text is the
	// request's source.
	Source *string `json:",omitempty"`
}

// cached answers a request for the report on text from opts.Cache,
// running compute on a miss, or on every call when opts.Cache is nil.
// source is the text the request carries (text itself, except in project
// mode, where text is its preprocess); a hit's report gets it back as
// its Source when the stored entry left that out. A repeated identical
// request is answered without parsing or solving anything, concurrent
// identical requests collapse into a single computation, and a hit comes
// back with Cached set. Only full-fidelity reports (empty Degraded) are
// stored; degraded or failed runs are recomputed every time.
func cached(ctx context.Context, filename, text, source string, opts Options, compute func() (*Report, error)) (*Report, error) {
	c := opts.Cache
	if c == nil {
		return compute()
	}
	var computed *Report
	lookup := time.Now()
	payload, _, err := c.Do(CacheKey(filename, text, opts), func() ([]byte, bool, error) {
		// The miss span wraps the whole recomputation, so the fix span
		// (and every analysis span) nests inside it in the trace.
		sp := opts.Tracer.Start(ctx, obs.StageCacheMiss, filename)
		defer sp.End()
		rep, err := compute()
		if err != nil {
			return nil, false, err
		}
		computed = rep
		e := entry{Report: rep}
		if rep.Source != source {
			e.Source = &rep.Source
		}
		b, err := json.Marshal(e)
		if err != nil {
			return nil, false, err
		}
		return b, len(rep.Degraded) == 0, nil
	})
	if err != nil {
		return nil, err
	}
	if computed != nil {
		// This call ran the pipeline itself; hand back the original
		// result rather than a decode of it.
		return computed, nil
	}
	e := entry{Report: new(Report)}
	if err := json.Unmarshal(payload, &e); err != nil {
		// A payload that does not decode is treated exactly like a
		// corrupt disk entry: recompute, never fail the request.
		return compute()
	}
	e.Report.Source = source
	if e.Source != nil {
		e.Report.Source = *e.Source
	}
	opts.Tracer.RecordSince(ctx, obs.StageCacheHit, filename, lookup)
	e.Report.Cached = true
	return e.Report, nil
}
