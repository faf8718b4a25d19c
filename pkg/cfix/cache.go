package cfix

import "repro/internal/cache"

// ResultCache is a content-addressed cache of fix and lint results: a
// byte-bounded in-memory LRU keyed by sha256 over (source text, options
// fingerprint, diagnostic filename), with singleflight deduplication of
// concurrent identical requests and optional disk persistence. Attach
// one to Options.Cache and repeated identical requests skip parsing and
// solving entirely; only full-fidelity results are stored, so a cache
// can never weaken a report. One ResultCache is safe to share across
// every Fix and Analyze call in a process — that sharing is the point.
type ResultCache struct {
	c *cache.Cache
}

// NewResultCache creates a cache bounded to maxBytes of in-memory
// entries (<= 0 means 64 MiB). dir, when non-empty, additionally
// persists every entry to that directory (atomic temp+rename writes,
// checksum-verified reads), so `cfix -cache-dir` re-runs and cfixd
// restarts start warm. Delete the directory to flush it; entries are
// self-validating, so a corrupt or truncated file degrades to a
// recomputation, never to a wrong result.
func NewResultCache(maxBytes int64, dir string) (*ResultCache, error) {
	c, err := cache.New(maxBytes, dir)
	if err != nil {
		return nil, err
	}
	return &ResultCache{c: c}, nil
}

// CacheStats is a point-in-time snapshot of a ResultCache's counters.
type CacheStats = cache.Stats

// Stats returns the cache's effectiveness counters (hits, misses,
// singleflight collapses, evictions, disk traffic, current footprint).
func (rc *ResultCache) Stats() CacheStats { return rc.c.Stats() }

// internal returns the underlying cache for core.Options plumbing; nil
// receiver means no cache.
func (rc *ResultCache) internal() *cache.Cache {
	if rc == nil {
		return nil
	}
	return rc.c
}
