package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(context.Background(), StageParse, "a.c")
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	// Every operation on the disabled path must be a no-op, not a panic.
	sp.Attr("k", "v").Attr("k2", "v2")
	sp.End()
	if tr.Len() != 0 || tr.Spans() != nil || tr.WallClock() != 0 {
		t.Fatal("nil tracer must observe nothing")
	}
	if got := tr.StageStats(); len(got) != 0 {
		t.Fatalf("nil tracer stats: %v", got)
	}
}

// skipIfNoTrace guards tests of the live recording path, which the
// cfix_notrace build compiles out (the aggregation tests below drive
// record() directly and run under both tags).
func skipIfNoTrace(t *testing.T) {
	t.Helper()
	if !Enabled() {
		t.Skip("tracing compiled out (cfix_notrace)")
	}
}

func TestSpanRecordingAndAttrs(t *testing.T) {
	skipIfNoTrace(t)
	tr := NewTracer()
	sp := tr.Start(context.Background(), StageParse, "a.c")
	sp.Attr("funcs", "3").Attr("degraded", "budget exhausted")
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans: %d", len(spans))
	}
	s := spans[0]
	if s.Name != StageParse || s.File != "a.c" || s.Lane != 0 {
		t.Fatalf("span: %+v", s)
	}
	if v, ok := s.AttrValue("funcs"); !ok || v != "3" {
		t.Fatalf("funcs attr: %q %v", v, ok)
	}
	if !s.Degraded() {
		t.Fatal("degraded attr not detected")
	}
	if s.Dur < 0 {
		t.Fatalf("negative duration: %v", s.Dur)
	}
}

func TestLaneFromContext(t *testing.T) {
	skipIfNoTrace(t)
	tr := NewTracer()
	ctx := WithLane(context.Background(), 7)
	tr.Start(ctx, StageSLR, "b.c").End()
	if got := tr.Spans()[0].Lane; got != 7 {
		t.Fatalf("lane: %d", got)
	}
	if LaneFrom(nil) != 0 || LaneFrom(context.Background()) != 0 {
		t.Fatal("untagged contexts must be lane 0")
	}
}

func TestConcurrentRecording(t *testing.T) {
	skipIfNoTrace(t)
	tr := NewTracer()
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := WithLane(context.Background(), w)
			for i := 0; i < per; i++ {
				tr.Start(ctx, StageCFG, "c.c").End()
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Fatalf("spans: %d", tr.Len())
	}
}

// TestChromeTraceShape decodes the export and checks the trace-event
// contract the smoke checker (cmd/tracecheck) enforces.
func TestChromeTraceShape(t *testing.T) {
	skipIfNoTrace(t)
	tr := NewTracer()
	for _, name := range []string{StageParse, StageTypecheck, StageSLR} {
		tr.Start(WithLane(context.Background(), 2), name, "x.c").Attr("funcs", "1").End()
	}
	b, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	if len(decoded.TraceEvents) != 3 {
		t.Fatalf("events: %d", len(decoded.TraceEvents))
	}
	for _, ev := range decoded.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("phase: %q", ev.Ph)
		}
		if ev.Dur <= 0 {
			t.Fatalf("non-positive dur: %v", ev.Dur)
		}
		if ev.Tid != 2 {
			t.Fatalf("tid: %d", ev.Tid)
		}
		if ev.Args["file"] != "x.c" {
			t.Fatalf("file arg: %v", ev.Args)
		}
	}
}

// makeSpan injects a synthetic span directly, for deterministic
// self-time arithmetic.
func makeSpan(tr *Tracer, name string, lane int, start, dur time.Duration) {
	tr.record(Span{Name: name, Lane: lane, Start: start, Dur: dur})
}

func TestStageStatsSelfTime(t *testing.T) {
	tr := NewTracer()
	// Lane 0: fix [0,100ms] containing slr [10,40] and str [50,90];
	// slr contains pointsto [15,35].
	makeSpan(tr, StageFix, 0, 0, 100*time.Millisecond)
	makeSpan(tr, StageSLR, 0, 10*time.Millisecond, 30*time.Millisecond)
	makeSpan(tr, StagePointsTo, 0, 15*time.Millisecond, 20*time.Millisecond)
	makeSpan(tr, StageSTR, 0, 50*time.Millisecond, 40*time.Millisecond)
	// Lane 1: an independent parse; nesting is per lane.
	makeSpan(tr, StageParse, 1, 5*time.Millisecond, 10*time.Millisecond)

	stats := tr.StageStats()
	byName := map[string]StageStat{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	want := map[string]time.Duration{
		StageFix:      30 * time.Millisecond, // 100 - 30 - 40
		StageSLR:      10 * time.Millisecond, // 30 - 20
		StagePointsTo: 20 * time.Millisecond,
		StageSTR:      40 * time.Millisecond,
		StageParse:    10 * time.Millisecond,
	}
	for name, self := range want {
		if got := byName[name].Self; got != self {
			t.Errorf("%s self: got %v want %v", name, got, self)
		}
	}
	// Self times must sum to the per-lane traced wall clock: 100ms on
	// lane 0 plus 10ms on lane 1.
	if got := SelfTotal(stats); got != 110*time.Millisecond {
		t.Fatalf("self total: %v", got)
	}
	if got := tr.WallClock(); got != 100*time.Millisecond {
		t.Fatalf("wall: %v", got)
	}
}

func TestStageStatsDegradedCount(t *testing.T) {
	tr := NewTracer()
	tr.record(Span{Name: StageReaching, Dur: time.Millisecond,
		Attrs: []Attr{{Key: "degraded", Value: "budget exhausted"}}})
	tr.record(Span{Name: StageReaching, Start: 2 * time.Millisecond, Dur: time.Millisecond})
	stats := tr.StageStats()
	if len(stats) != 1 || stats[0].Count != 2 || stats[0].Degraded != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestMergeStageStats(t *testing.T) {
	a := []StageStat{
		{Name: StageParse, Count: 2, Total: 10 * time.Millisecond, Self: 10 * time.Millisecond,
			Min: 4 * time.Millisecond, Max: 6 * time.Millisecond},
		{Name: StageSLR, Count: 1, Total: 5 * time.Millisecond, Self: 3 * time.Millisecond,
			Min: 5 * time.Millisecond, Max: 5 * time.Millisecond, Degraded: 1},
	}
	b := []StageStat{
		{Name: StageParse, Count: 1, Total: 2 * time.Millisecond, Self: 2 * time.Millisecond,
			Min: 2 * time.Millisecond, Max: 2 * time.Millisecond},
		{Name: StageSTR, Count: 1, Total: 7 * time.Millisecond, Self: 7 * time.Millisecond,
			Min: 7 * time.Millisecond, Max: 7 * time.Millisecond},
	}
	got := MergeStageStats(nil, a)
	got = MergeStageStats(got, b)
	byName := map[string]StageStat{}
	for _, st := range got {
		byName[st.Name] = st
	}
	p := byName[StageParse]
	if p.Count != 3 || p.Total != 12*time.Millisecond || p.Self != 12*time.Millisecond ||
		p.Min != 2*time.Millisecond || p.Max != 6*time.Millisecond {
		t.Fatalf("merged parse: %+v", p)
	}
	if byName[StageSLR].Degraded != 1 || byName[StageSTR].Count != 1 {
		t.Fatalf("merged: %+v", got)
	}
	// Ordered by self descending: parse (12ms) before str (7ms) before slr (3ms).
	if got[0].Name != StageParse || got[1].Name != StageSTR || got[2].Name != StageSLR {
		t.Fatalf("order: %+v", got)
	}
}

func TestFormatStageStats(t *testing.T) {
	tr := NewTracer()
	makeSpan(tr, StageParse, 0, 0, 3*time.Millisecond)
	out := FormatStageStats(tr.StageStats(), tr.WallClock())
	for _, want := range []string{"stage", "parse", "total", "wall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTracerDrain: Drain hands over the spans recorded since the last
// drain exactly once and leaves the tracer empty.
func TestTracerDrain(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Drain() != nil {
		t.Fatal("nil tracer drained spans")
	}
	tr := NewTracer()
	tr.record(Span{Name: StageParse})
	tr.record(Span{Name: StageHashes})
	if got := tr.Drain(); len(got) != 2 || got[0].Name != StageParse || got[1].Name != StageHashes {
		t.Fatalf("first drain: %+v", got)
	}
	if tr.Len() != 0 || len(tr.Drain()) != 0 {
		t.Fatal("drained tracer still holds spans")
	}
	tr.record(Span{Name: StageIncremental})
	if got := tr.Drain(); len(got) != 1 || got[0].Name != StageIncremental {
		t.Fatalf("drain after more spans: %+v", got)
	}
}
