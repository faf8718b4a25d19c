package core

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

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
const fingerprintVersion = "v5"

// fingerprint renders every result-affecting option into the cache key.
// Timeout is deliberately absent: a completed full-fidelity run does not
// depend on how much wall clock it was allowed (a run that exceeds its
// deadline fails and failures are never cached), so the same entry can
// serve requests with different deadlines. Budget and KeepGoing do
// shape results (degradation points) and are part of the key — though
// degraded results are never stored anyway, an in-budget clean run under
// budget B proves nothing about budget B' < B.
func (o Options) fingerprint(kind string) string {
	fp := fmt.Sprintf("%s|%s|slr=%t|str=%t|at=%d|support=%t|lint=%t|checks=%s|backend=%s|budget=%d|keep=%t",
		fingerprintVersion, kind, o.DisableSLR, o.DisableSTR, o.SelectOffset,
		o.EmitSupport, o.Lint, canonicalChecks(o.Checks), canonicalBackend(o.Backend), o.Budget, o.KeepGoing)
	// Project-mode inputs append only when present, so single-file keys
	// are unchanged within a fingerprint version.
	if x := overflow.SeedFingerprint(o.ExternSeeds); x != "" {
		fp += "|xtu=" + x
	}
	return fp
}

// cacheKey derives the content-addressed key for one request: the
// source text dominates (sha256 of content), the options fingerprint
// separates semantically different runs over the same text, and the
// diagnostic filename is included because reports embed it in every
// position — two identical sources under different names must not trade
// diagnostics.
func cacheKey(kind, filename, source string, opts Options) string {
	return cache.Key(source, opts.fingerprint(kind), filename)
}

// CacheKey exposes the content-addressed request key (cacheKey) to the
// routing tier: the fleet router consistent-hashes requests by exactly
// the fingerprint the result cache stores them under, so all identical
// requests land on (and warm) the same shard. kind is "fix" or "lint".
func CacheKey(kind, filename, source string, opts Options) string {
	return cacheKey(kind, filename, source, opts)
}

// cacheEntry is a result the cache stores: *Report for fix requests,
// *LintReport for lint ones.
type cacheEntry[T any] interface {
	*T
	degraded() []string
	markCached()
}

func (r *Report) degraded() []string     { return r.Degraded }
func (r *Report) markCached()            { r.Cached = true }
func (r *LintReport) degraded() []string { return r.Degraded }
func (r *LintReport) markCached()        { r.Cached = true }

// cached answers a kind ("fix" or "lint") request for source from
// opts.Cache, running compute on a miss, or on every call when
// opts.Cache is nil. A repeated identical request is answered without
// parsing or solving anything, concurrent identical requests collapse
// into a single computation, and a hit comes back with Cached set. Only
// full-fidelity results (empty Degraded) are stored; degraded or failed
// runs are recomputed every time.
func cached[T any, R cacheEntry[T]](ctx context.Context, kind, filename, source string, opts Options, compute func() (R, error)) (R, error) {
	c := opts.Cache
	if c == nil {
		return compute()
	}
	var computed R
	lookup := time.Now()
	payload, _, err := c.Do(cacheKey(kind, filename, source, opts), func() ([]byte, bool, error) {
		// The miss span wraps the whole recomputation, so the fix span
		// (and every analysis span) nests inside it in the trace.
		sp := opts.Tracer.Start(ctx, obs.StageCacheMiss, filename)
		defer sp.End()
		rep, err := compute()
		if err != nil {
			return nil, false, err
		}
		computed = rep
		b, err := json.Marshal(rep)
		if err != nil {
			return nil, false, err
		}
		return b, len(rep.degraded()) == 0, nil
	})
	if err != nil {
		return nil, err
	}
	if computed != nil {
		// This call ran the pipeline itself; hand back the original
		// result rather than a decode of it.
		return computed, nil
	}
	rep := R(new(T))
	if err := json.Unmarshal(payload, rep); err != nil {
		// A payload that does not decode is treated exactly like a
		// corrupt disk entry: recompute, never fail the request.
		return compute()
	}
	opts.Tracer.RecordSince(ctx, obs.StageCacheHit, filename, lookup)
	rep.markCached()
	return rep, nil
}
