package cfix

import (
	"time"

	"repro/internal/obs"
)

// Tracer records one span per pipeline stage — parse, typecheck, the
// derived analyses, SLR, STR, rewrite, cache hit/miss — with monotonic
// timings and per-span attributes (file, function count, solver
// iterations, degradation reason). Attach one via Options.Tracer, then
// export a Chrome trace (Tracer.WriteChromeTrace) or an aggregated
// per-stage summary (Tracer.StageStats / FormatStageStats). A nil
// *Tracer is the valid disabled state; tracing never changes a result,
// only observes the run. Safe for concurrent use by the batch
// pipeline's workers — each worker renders as one Chrome trace lane.
type Tracer = obs.Tracer

// Span is one completed stage measurement recorded by a Tracer.
type Span = obs.Span

// StageStat aggregates every span of one stage name; Self excludes
// nested stages, so summing Self across stages reproduces the traced
// wall clock without double counting.
type StageStat = obs.StageStat

// NewTracer starts a tracer whose epoch is now.
func NewTracer() *Tracer { return obs.NewTracer() }

// FormatStageStats renders the aggregated per-stage summary table
// printed by `cfix -stage-stats`. wall, when positive, is reported in
// the footer next to the stats total for cross-checking.
func FormatStageStats(stats []StageStat, wall time.Duration) string {
	return obs.FormatStageStats(stats, wall)
}
