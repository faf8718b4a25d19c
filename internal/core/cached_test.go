package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cache"
)

func newTestCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(16<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFixCachedHitSkipsParse is the acceptance property of the result
// cache: a repeated identical request is a hit that performs zero
// parses (and therefore zero solves), and its report is byte-identical
// to the computed one.
func TestFixCachedHitSkipsParse(t *testing.T) {
	c := newTestCache(t)
	opts := Options{SelectOffset: -1, Lint: true, Cache: c}

	cold, err := Fix(context.Background(), "cached.c", overflowing, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first request must be a miss")
	}

	var warm *Report
	delta := parseDelta(func() {
		warm, err = Fix(context.Background(), "cached.c", overflowing, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Cached {
			t.Fatal("second identical request must be a cache hit")
		}
	})
	if delta != 0 {
		t.Fatalf("cache hit parsed %d times, want 0", delta)
	}
	if warm.Source != cold.Source {
		t.Fatalf("cached Source differs from computed Source:\n%s\n---\n%s", warm.Source, cold.Source)
	}
	if warm.Summary() != cold.Summary() {
		t.Fatalf("cached Summary differs:\n%s\n---\n%s", warm.Summary(), cold.Summary())
	}
	if !reflect.DeepEqual(warm.Findings, cold.Findings) {
		t.Fatal("cached findings differ from computed findings")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestFixCachedV5PayloadWithRemovedFields: a v5 entry stored before the
// transformers stopped carrying their own text, link flags and refusal
// log still holds those keys. Decoding ignores them, so the hit is the
// report a fresh run computes.
func TestFixCachedV5PayloadWithRemovedFields(t *testing.T) {
	opts := Options{SelectOffset: -1, Lint: true}
	cold, err := Fix(context.Background(), "old.c", overflowing, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	var stored map[string]any
	if err := json.Unmarshal(want, &stored); err != nil {
		t.Fatal(err)
	}
	slr, str := stored["SLR"].(map[string]any), stored["STR"].(map[string]any)
	slr["NewSource"], slr["NeedsGlib"] = cold.Source, true
	str["NewSource"], str["NeedsStralloc"] = cold.Source, true
	str["Log"] = []string{`t.c:4:5: STR not applied to "p": unsupported use of the variable ()`}
	old, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = newTestCache(t)
	opts.Cache.Put(CacheKey("old.c", overflowing, opts), old)
	var warm *Report
	if delta := parseDelta(func() {
		if warm, err = Fix(context.Background(), "old.c", overflowing, opts); err != nil {
			t.Fatal(err)
		}
	}); delta != 0 || !warm.Cached {
		t.Fatalf("stored v5 payload not served: cached=%v parses=%d", warm.Cached, delta)
	}
	got, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("decoded v5 payload differs from a fresh report:\n%s\n---\n%s", got, want)
	}
}

// TestFixViaOptionsCache checks the Options.Cache plumbing used by the
// batch pipeline and the CLI: a repeated Fix with a cache is a hit.
func TestFixViaOptionsCache(t *testing.T) {
	opts := Options{SelectOffset: -1, Cache: newTestCache(t)}
	first, err := Fix(context.Background(), "p.c", overflowing, opts)
	if err != nil {
		t.Fatal(err)
	}
	var second *Report
	delta := parseDelta(func() {
		second, err = Fix(context.Background(), "p.c", overflowing, opts)
		if err != nil {
			t.Fatal(err)
		}
	})
	if delta != 0 {
		t.Fatalf("second Fix parsed %d times, want 0", delta)
	}
	if !second.Cached || second.Source != first.Source {
		t.Fatalf("second Fix: cached=%v, sources equal=%v", second.Cached, second.Source == first.Source)
	}
}

// TestFixCacheKeySeparatesRequests: changing the options, the filename,
// or the source must miss — the cache may never trade results between
// semantically different requests.
func TestFixCacheKeySeparatesRequests(t *testing.T) {
	c := newTestCache(t)
	base := Options{SelectOffset: -1, Cache: c}
	if rep, err := Fix(context.Background(), "a.c", overflowing, base); err != nil || rep.Cached {
		t.Fatalf("seed request: err=%v", err)
	}
	variants := []struct {
		name     string
		filename string
		source   string
		opts     Options
	}{
		{"different options", "a.c", overflowing, Options{SelectOffset: -1, DisableSTR: true, Cache: c}},
		{"different filename", "b.c", overflowing, base},
		{"different source", "a.c", overflowing + "\n", base},
		{"different budget", "a.c", overflowing, Options{SelectOffset: -1, Budget: 1 << 20, Cache: c}},
	}
	for _, v := range variants {
		rep, err := Fix(context.Background(), v.filename, v.source, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if rep.Cached {
			t.Errorf("%s: false cache hit", v.name)
		}
	}
}

// TestDegradedReportsNotCached: a budget-degraded report must be
// recomputed every time — the cache only remembers full-fidelity runs.
func TestDegradedReportsNotCached(t *testing.T) {
	defer analysis.InjectFault("deg.c", analysis.Fault{Budget: 1})()
	opts := Options{SelectOffset: -1, Lint: true, DisableSLR: true, DisableSTR: true,
		Cache: newTestCache(t)}
	for i := 0; i < 2; i++ {
		rep, err := Fix(context.Background(), "deg.c", overflowing, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(rep.Degraded) == 0 {
			t.Fatalf("run %d: expected a degraded report", i)
		}
		if rep.Cached {
			t.Fatalf("run %d: degraded report served from cache", i)
		}
	}
}

// TestAnalyzeReportDegradations: the lint path must surface snapshot
// degradations alongside the findings (they were previously dropped).
func TestAnalyzeReportDegradations(t *testing.T) {
	defer analysis.InjectFault("lintdeg.c", analysis.Fault{Budget: 1})()
	rep, err := Fix(context.Background(), "lintdeg.c", overflowing, LintOptions(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) == 0 {
		t.Fatal("the lint run dropped the degradation notes")
	}
}

// TestAnalyzeCachedRoundTrip: lint results cache like fix results, and
// batch lint carries the cache marker.
func TestAnalyzeCachedRoundTrip(t *testing.T) {
	opts := LintOptions(Options{Cache: newTestCache(t)})
	cold, err := Fix(context.Background(), "l.c", overflowing, opts)
	if err != nil || cold.Cached {
		t.Fatalf("cold: err=%v", err)
	}
	var warm *Report
	delta := parseDelta(func() {
		warm, err = Fix(context.Background(), "l.c", overflowing, opts)
		if err != nil {
			t.Fatal(err)
		}
	})
	if !warm.Cached || delta != 0 {
		t.Fatalf("warm: cached=%v parses=%d", warm.Cached, delta)
	}
	if !reflect.DeepEqual(warm.Findings, cold.Findings) {
		t.Fatal("cached lint findings differ")
	}

	outs := FixAll(context.Background(), []FileInput{{Filename: "l.c", Source: overflowing}}, opts, 1)
	if outs[0].Err != nil || !outs[0].Report.Cached {
		t.Fatalf("batch lint after warmup: err=%v", outs[0].Err)
	}
	if !reflect.DeepEqual(outs[0].Report.Findings, cold.Findings) {
		t.Fatal("batch lint findings differ from direct analysis")
	}
}

// TestCachedEntryOmitsRequestSource: a report whose text is the
// request's own, as every lint report's is, is stored without that text
// and gets it back on a hit; a fix that changed the text stores it.
func TestCachedEntryOmitsRequestSource(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    Options
		changed bool
	}{
		{"lint", LintOptions(Options{}), false},
		{"fix", Options{SelectOffset: -1}, true},
	} {
		opts := tc.opts
		opts.Cache = newTestCache(t)
		cold, err := Fix(context.Background(), "e.c", overflowing, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Changed() != tc.changed {
			t.Fatalf("%s: changed = %v, want %v", tc.name, cold.Changed(), tc.changed)
		}
		payload, ok := opts.Cache.Get(CacheKey("e.c", overflowing, opts))
		if !ok {
			t.Fatalf("%s: report not stored", tc.name)
		}
		if stored := bytes.Contains(payload, []byte(`"Source"`)); stored != tc.changed {
			t.Fatalf("%s: stored entry carries Source = %v, want %v:\n%s", tc.name, stored, tc.changed, payload)
		}
		warm, err := Fix(context.Background(), "e.c", overflowing, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Cached || warm.Source != cold.Source {
			t.Fatalf("%s: hit cached=%v, Source restored=%v", tc.name, warm.Cached, warm.Source == cold.Source)
		}
	}
}

// TestFixAllSharedCacheEquivalence: a batch re-run over an unchanged
// corpus is answered entirely from the cache with byte-identical
// outputs — the `cfix -cache-dir` maintenance scenario.
func TestFixAllSharedCacheEquivalence(t *testing.T) {
	files := []FileInput{
		{Filename: "one.c", Source: overflowing},
		{Filename: "two.c", Source: sample},
		{Filename: "three.c", Source: overflowing}, // same content, different name
	}
	opts := Options{SelectOffset: -1, Cache: newTestCache(t)}
	first := FixAll(context.Background(), files, opts, 2)
	var second []FileOutput
	delta := parseDelta(func() {
		second = FixAll(context.Background(), files, opts, 2)
	})
	if delta != 0 {
		t.Fatalf("warm batch re-run parsed %d times, want 0", delta)
	}
	for i := range files {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("file %d: errs %v / %v", i, first[i].Err, second[i].Err)
		}
		if !second[i].Report.Cached {
			t.Errorf("file %d not served from cache on re-run", i)
		}
		if first[i].Report.Source != second[i].Report.Source {
			t.Errorf("file %d: cached output differs from computed output", i)
		}
	}
}

// TestFixCachedConcurrentSingleflight: concurrent identical requests
// collapse into one computation and all observe the same bytes.
func TestFixCachedConcurrentSingleflight(t *testing.T) {
	opts := Options{SelectOffset: -1, Cache: newTestCache(t)}
	const goroutines = 8
	var wg sync.WaitGroup
	sources := make([]string, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Fix(context.Background(), "conc.c", overflowing, opts)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			sources[i] = rep.Source
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if sources[i] != sources[0] {
			t.Fatalf("goroutine %d saw a different transformed source", i)
		}
	}
	st := opts.Cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 computation", st.Misses)
	}
}
