package main

import (
	"context"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/clex"
	"repro/internal/cparse"
	"repro/internal/cpp"
	"repro/internal/obs"
	"repro/internal/slr"
	"repro/internal/str"
)

// A traced run replays a workload's seeded inputs on one goroutine. Each
// op goes through its real entry point with the program's own stage
// tracer (internal/obs) attached, and a layer's time is the self time of
// its stage's spans: a span's length minus the spans nested directly in
// it. Three layers have no span and are measured from outside, after the
// op, by calling the module on the op's own inputs:
//
//   - cpp: every unit of a project is preprocessed once more, and each
//     parse of a unit is charged one such pass, taken out of the span the
//     parse ran in (project mode parses only what it has just
//     preprocessed);
//   - clex: the op's parser input is parsed and tokenized once more, and
//     the lexer's share of that parse is its share of every parse span;
//   - edit: a session's edit script is applied once more to the text it
//     edited.
//
// What the spans and these leave over (the entry point's own work, the
// fix and lint spans' self time, the tracer itself) is core. Nothing is
// compared with a model of the pipeline, so a change to the pipeline's
// order or structure moves these numbers but cannot fail the run.

// layer indexes the modules a traced run attributes time to.
type layer int

const (
	lCpp layer = iota
	lClex
	lCparse
	lTypecheck
	lCfg
	lDataflow
	lPointsto
	lCallgraph
	lInterproc
	lBuflen
	lOverflow
	lIntflow
	lSlr
	lStr
	lRewrite
	lHashes
	lIncremental
	lEdit
	lServer
	lFleet
	numLayers
)

// layerNames are the module names the per-layer metrics carry.
var layerNames = [numLayers]string{
	"cpp", "clex", "cparse", "typecheck", "cfg", "dataflow", "pointsto",
	"callgraph", "interproc", "buflen", "overflow", "intflow", "slr", "str",
	"rewrite", "hashes", "incremental", "edit", "server", "fleet",
}

// frontLayers are the layers measured from outside, whose allocations
// are measured too.
var frontLayers = []layer{lCpp, lClex, lCparse}

// stageLayer maps the program's stage names to layers. The fix and lint
// spans are the entry point's own and count as core, as does the time of
// any stage this map does not name.
var stageLayer = map[string]layer{
	obs.StageParse:       lCparse,
	obs.StageTypecheck:   lTypecheck,
	obs.StageCFG:         lCfg,
	obs.StageReaching:    lDataflow,
	obs.StagePointsTo:    lPointsto,
	obs.StageAliases:     lPointsto,
	obs.StageCallGraph:   lCallgraph,
	obs.StageMayMod:      lInterproc,
	obs.StageBufLen:      lBuflen,
	obs.StageOverflow:    lOverflow,
	obs.StageIntflow:     lIntflow,
	obs.StageSLR:         lSlr,
	obs.StageSTR:         lStr,
	obs.StageRewrite:     lRewrite,
	obs.StageHashes:      lHashes,
	obs.StageIncremental: lIncremental,
}

// tracer accumulates one traced run's measurements.
type tracer struct {
	mem runtime.MemStats

	ms     [numLayers]float64
	allocs [numLayers]float64

	// ops counts replayed workload operations; entryMs and entryAllocs
	// are the entry points' totals over them, and the GC figures are
	// deltas taken across the entry calls only.
	ops         int
	entryMs     float64
	entryAllocs float64
	parseCalls  int64
	gcCycles    uint32
	gcPauseNs   uint64
	heapBytes   uint64

	cppCalls            int
	cppIn, cppOut       int64
	lexBytes            int64
	lexMs, parseMs      float64
	slrApplied, slrSite int
	strApplied, strVar  int

	// extra holds the workload-specific per-layer metrics (cache,
	// server, fleet, incremental, project).
	extra map[string]float64
}

func newTracer() *tracer { return &tracer{extra: make(map[string]float64)} }

// measure runs f and returns its wall time and heap allocation count.
// runtime.ReadMemStats flushes every P's allocation cache, so the count
// is exact per call; runtime/metrics only counts small allocations when
// a cache span is refilled, which would misattribute them across calls.
func (t *tracer) measure(f func()) (time.Duration, float64) {
	runtime.ReadMemStats(&t.mem)
	before := t.mem.Mallocs
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&t.mem)
	return d, float64(t.mem.Mallocs - before)
}

// add charges d to layer l.
func (t *tracer) add(l layer, d time.Duration) { t.ms[l] += ms(d) }

// entry runs f as one workload operation through its real entry point
// and returns its wall time.
func (t *tracer) entry(f func() error) (time.Duration, error) {
	runtime.ReadMemStats(&t.mem)
	allocs, bytes, gc, pause := t.mem.Mallocs, t.mem.TotalAlloc, t.mem.NumGC, t.mem.PauseTotalNs
	parses := cparse.Parses()
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.parseCalls += cparse.Parses() - parses
	runtime.ReadMemStats(&t.mem)
	t.ops++
	t.entryMs += ms(d)
	t.entryAllocs += float64(t.mem.Mallocs - allocs)
	t.heapBytes += t.mem.TotalAlloc - bytes
	t.gcCycles += t.mem.NumGC - gc
	t.gcPauseNs += t.mem.PauseTotalNs - pause
	return d, err
}

// frontCost is the outside measurement of one parser input.
type frontCost struct {
	bytes int
	// cpp is one preprocess of the unit, zero outside project mode.
	cpp, lex, parse                   time.Duration
	cppAllocs, lexAllocs, parseAllocs float64
}

// frontend measures the front end on one input: a preprocess when pre is
// non-nil, then a parse of the parser's input, then a tokenization of
// it, made after the parse so that it cannot warm the caches for it.
func (t *tracer) frontend(name, src string, pre *cpp.Options) (*frontCost, error) {
	var c frontCost
	text := src
	if pre != nil {
		var pp *cpp.Result
		var err error
		c.cpp, c.cppAllocs = t.measure(func() { pp, err = cpp.Preprocess(name, src, *pre) })
		if err != nil {
			return nil, err
		}
		text = pp.Text
		t.cppIn += int64(len(src))
		t.cppOut += int64(len(text))
	}
	var err error
	c.parse, c.parseAllocs = t.measure(func() { _, err = analysis.ParseCtx(context.Background(), name, text, analysis.Config{}) })
	if err != nil {
		return nil, err
	}
	c.lex, c.lexAllocs = t.measure(func() { clex.TokenizeForParser(text) })
	c.bytes = len(text)
	return &c, nil
}

// nest returns each span's self time, its length minus the spans nested
// directly in it, and the index of the span it is nested in directly, -1
// for none. It sorts spans by start; the spans of one goroutine nest
// properly.
func nest(spans []obs.Span) (self []time.Duration, parent []int) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur
	})
	self = make([]time.Duration, len(spans))
	parent = make([]int, len(spans))
	var stack []int
	for i, s := range spans {
		self[i] = s.Dur
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if s.Start < top.Start+top.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
			self[parent[i]] -= s.Dur
		}
		stack = append(stack, i)
	}
	return self, parent
}

// charge attributes one op's spans to layers. inputs holds the outside
// measurement of each file the op parsed, by file name; a parse of a
// file without one counts wholly as cparse.
func (t *tracer) charge(spans []obs.Span, inputs map[string]*frontCost) {
	self, parent := nest(spans)
	for i, s := range spans {
		c := inputs[s.File]
		if s.Name != obs.StageParse || c == nil || c.cpp == 0 {
			continue
		}
		t.add(lCpp, c.cpp)
		t.allocs[lCpp] += c.cppAllocs
		t.cppCalls++
		if p := parent[i]; p >= 0 {
			self[p] -= c.cpp
		}
	}
	for i, s := range spans {
		l, ok := stageLayer[s.Name]
		d := max(self[i], 0)
		switch {
		case !ok:
		case s.Name == obs.StageParse && inputs[s.File] != nil:
			c := inputs[s.File]
			share := min(ratio(float64(c.lex), float64(c.parse)), 1)
			lex := time.Duration(share * float64(d))
			t.add(lClex, lex)
			t.add(lCparse, d-lex)
			t.allocs[lClex] += c.lexAllocs
			t.allocs[lCparse] += max(c.parseAllocs-c.lexAllocs, 0)
			t.lexBytes += int64(c.bytes)
			t.lexMs += ms(c.lex)
			t.parseMs += ms(c.parse - c.lex)
		default:
			t.add(l, d)
		}
	}
}

// count adds one op's repair outcomes to the precision sentinels; either
// result may be nil.
func (t *tracer) count(s *slr.FileResult, r *str.FileResult) {
	if s != nil {
		t.slrApplied += s.AppliedCount()
		t.slrSite += s.Candidates()
	}
	if r != nil {
		t.strApplied += r.AppliedCount()
		t.strVar += r.Candidates()
	}
}

// ratio divides, reading 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics renders the per-layer metrics of the run.
func (t *tracer) metrics() map[string]float64 {
	ops := float64(max(t.ops, 1))
	m := make(map[string]float64, len(perLayer))
	var selfMs float64
	for l := layer(0); l < numLayers; l++ {
		m[layerNames[l]+".ms_per_op"] = t.ms[l] / ops
		selfMs += t.ms[l]
	}
	for _, l := range frontLayers {
		m[layerNames[l]+".allocs_per_op"] = t.allocs[l] / ops
	}
	m["core.ms_per_op"] = (t.entryMs - selfMs) / ops
	m["trace.coverage_pct"] = 100 * ratio(selfMs, t.entryMs)
	m["cpp.calls_per_op"] = float64(t.cppCalls) / ops
	m["cpp.out_in_ratio"] = ratio(float64(t.cppOut), float64(t.cppIn))
	m["cparse.calls_per_op"] = float64(t.parseCalls) / ops
	m["clex.mb_per_s"] = ratio(float64(t.lexBytes)/1e6, t.lexMs/1e3)
	m["cparse.mb_per_s"] = ratio(float64(t.lexBytes)/1e6, t.parseMs/1e3)
	m["slr.applied_ratio"] = ratio(float64(t.slrApplied), float64(t.slrSite))
	m["str.applied_ratio"] = ratio(float64(t.strApplied), float64(t.strVar))
	m["gc.cycles_per_op"] = float64(t.gcCycles) / ops
	m["gc.pause_ms_per_op"] = float64(t.gcPauseNs) / 1e6 / ops
	m["heap.alloc_mb_per_op"] = float64(t.heapBytes) / 1e6 / ops
	m["heap.allocs_per_op"] = t.entryAllocs / ops
	for _, spec := range perLayer {
		if _, ok := m[spec.name]; !ok {
			m[spec.name] = t.extra[spec.name]
		}
	}
	return m
}
