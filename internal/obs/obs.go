// Package obs is the pipeline's zero-dependency observability layer:
// a low-overhead span tracer with Chrome trace-event export and
// aggregated per-stage statistics (DESIGN.md Section 11).
//
// Every pipeline stage — parse, typecheck, the derived analyses of the
// snapshot layer, SLR, STR, the rewrite assembly, and the result-cache
// lookup — opens a Span against the Tracer carried in core.Options.
// A nil *Tracer is the disabled state: every method is nil-safe and the
// whole instrumented path collapses to a handful of nil checks, so the
// no-trace pipeline pays (and is held to, by CI) ≤ 2% overhead. The
// `cfix_notrace` build tag compiles span creation out entirely; the CI
// overhead gate benchmarks the default build against it.
//
// The package sits below internal/analysis and internal/core and must
// not import anything outside the standard library.
package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Canonical stage span names. The differential and smoke tests assert
// on these exact strings, and DESIGN.md Section 11 documents them as the
// naming scheme: lower-case, one token, no spaces.
const (
	StageParse     = "parse"
	StageTypecheck = "typecheck"
	StageCFG       = "cfg"
	StageReaching  = "reaching"
	StagePointsTo  = "pointsto"
	StageAliases   = "aliases"
	StageCallGraph = "callgraph"
	StageMayMod    = "maymod"
	StageBufLen    = "buflen"
	StageOverflow  = "overflow"
	StageIntflow   = "intflow"
	StageSLR       = "slr"
	StageSTR       = "str"
	StageRewrite   = "rewrite"
	StageFix       = "fix"
	StageLint      = "lint"
	StageCacheHit  = "cache_hit"
	StageCacheMiss = "cache_miss"
	// StageHashes is the per-function dependency-hash computation backing
	// incremental invalidation; StageIncremental is one edit-triggered
	// re-analysis inside an incremental session.
	StageHashes      = "hashes"
	StageIncremental = "incremental"
)

// Attr is one key/value annotation on a span (file, function count,
// solver iterations, degradation reason, ...). Values are strings so a
// span never forces an allocation-heavy fmt call on the hot path unless
// the caller already has something to say.
type Attr struct {
	Key   string
	Value string
}

// Span is one completed stage measurement. Start is monotonic time
// since the tracer's epoch, so spans from concurrent workers order
// correctly regardless of wall-clock adjustments.
type Span struct {
	// Name is the stage name (one of the Stage* constants).
	Name string
	// File is the translation unit the stage processed.
	File string
	// Lane is the worker lane (0 in single-threaded runs; the batch
	// pool assigns one lane per worker, which becomes the Chrome trace
	// tid).
	Lane int
	// Start is the offset from the tracer's epoch; Dur the span length.
	Start time.Duration
	Dur   time.Duration
	// Attrs carries the span's annotations in insertion order.
	Attrs []Attr
}

// AttrValue returns the value of the named attribute, "" when absent.
func (s *Span) AttrValue(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Degraded reports whether the span carries a "degraded" attribute —
// the stage had to cut its analysis short (budget exhaustion, skipped
// stage) and its result is conservative rather than precise.
func (s *Span) Degraded() bool {
	_, ok := s.AttrValue("degraded")
	return ok
}

// Tracer records spans from one run. It is safe for concurrent use by
// any number of worker goroutines; a nil *Tracer is the valid disabled
// tracer on which every method no-ops.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Spans returns a copy of every recorded span in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Drain returns every span recorded since the previous Drain, in
// completion order, and forgets them. A long-lived tracer (an editor
// session's) drained after each operation holds only that operation's
// spans, and concurrent drains never return a span twice.
func (t *Tracer) Drain() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WallClock returns the extent of the trace: the distance from the
// earliest span start to the latest span end. Zero when nothing was
// recorded.
func (t *Tracer) WallClock() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return 0
	}
	first := t.spans[0].Start
	var last time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.Start < first {
			first = s.Start
		}
		if end := s.Start + s.Dur; end > last {
			last = end
		}
	}
	return last - first
}

// record appends one completed span.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ActiveSpan is an in-flight measurement returned by Start. The zero of
// usefulness is nil: every method on a nil *ActiveSpan no-ops, so
// instrumented code never branches on whether tracing is enabled.
type ActiveSpan struct {
	t       *Tracer
	started time.Time
	span    Span
}

// Attr annotates the span; nil-safe, chainable.
func (a *ActiveSpan) Attr(key, value string) *ActiveSpan {
	if a == nil {
		return nil
	}
	a.span.Attrs = append(a.span.Attrs, Attr{Key: key, Value: value})
	return a
}

// End completes the span and records it. Safe to call on nil and safe
// to call under a panic (instrumented stages defer it), so a contained
// crash still leaves a closed, attributed span behind.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.span.Dur = time.Since(a.started)
	a.t.record(a.span)
}

// laneKey carries the worker lane through a context.
type laneKey struct{}

// WithLane tags ctx with a worker lane id. The batch pool tags each
// worker's context so spans land in per-worker Chrome trace lanes.
func WithLane(ctx context.Context, lane int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, laneKey{}, lane)
}

// LaneFrom extracts the worker lane from ctx; 0 when untagged.
func LaneFrom(ctx context.Context) int {
	if ctx == nil {
		return 0
	}
	if lane, ok := ctx.Value(laneKey{}).(int); ok {
		return lane
	}
	return 0
}

// sortSpansForNesting orders spans so that a parent precedes its
// children: by lane, then start ascending, then duration descending.
func sortSpansForNesting(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Lane != spans[j].Lane {
			return spans[i].Lane < spans[j].Lane
		}
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur
	})
}
