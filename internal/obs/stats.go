package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageStat aggregates every span of one stage name.
type StageStat struct {
	Name  string
	Count int
	// Total sums span durations (inclusive of nested stages); Self sums
	// self time — duration minus directly nested spans — so summing
	// Self across all stages reproduces the traced wall clock of each
	// lane without double counting.
	Total time.Duration
	Self  time.Duration
	Min   time.Duration
	Max   time.Duration
	// Degraded counts spans carrying a "degraded" attribute.
	Degraded int
}

// StageStats aggregates the recorded spans per stage name, ordered by
// self time descending (ties by name for determinism).
//
// Self time relies on spans within one lane forming a properly nested
// (laminar) family, which the pipeline guarantees: each worker lane
// executes its files sequentially and every stage closes its span
// before its caller does.
func (t *Tracer) StageStats() []StageStat { return SpanStats(t.Spans()) }

// SpanStats is StageStats over a span list, such as one Drain returned.
// It sorts spans in place.
func SpanStats(spans []Span) []StageStat {
	sortSpansForNesting(spans)

	// Stack-walk each lane to find every span's directly nested
	// children and charge their time against the parent's self time.
	self := make([]time.Duration, len(spans))
	type frame struct {
		idx int
		end time.Duration
	}
	var stack []frame
	lane := -1
	for i := range spans {
		s := &spans[i]
		self[i] = s.Dur
		if s.Lane != lane {
			stack = stack[:0]
			lane = s.Lane
		}
		for len(stack) > 0 && s.Start >= stack[len(stack)-1].end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1].idx
			self[p] -= s.Dur
			if self[p] < 0 {
				self[p] = 0
			}
		}
		stack = append(stack, frame{idx: i, end: s.Start + s.Dur})
	}

	byName := make(map[string]*StageStat)
	for i := range spans {
		s := &spans[i]
		st := byName[s.Name]
		if st == nil {
			st = &StageStat{Name: s.Name, Min: s.Dur, Max: s.Dur}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += s.Dur
		st.Self += self[i]
		if s.Dur < st.Min {
			st.Min = s.Dur
		}
		if s.Dur > st.Max {
			st.Max = s.Dur
		}
		if s.Degraded() {
			st.Degraded++
		}
	}
	out := make([]StageStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// FormatStageStats renders the aggregated per-stage summary table. The
// Self column is exclusive time; its total reproduces the traced wall
// clock (per lane, summed), which the footer reports next to the
// tracer's observed extent for cross-checking.
func FormatStageStats(stats []StageStat, wall time.Duration) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-12s %8s %12s %12s %12s %12s %9s\n",
		"stage", "count", "self", "total", "min", "max", "degraded"))
	var selfSum time.Duration
	for _, st := range stats {
		selfSum += st.Self
		sb.WriteString(fmt.Sprintf("%-12s %8d %12s %12s %12s %12s %9d\n",
			st.Name, st.Count,
			roundDur(st.Self), roundDur(st.Total),
			roundDur(st.Min), roundDur(st.Max), st.Degraded))
	}
	sb.WriteString(fmt.Sprintf("%-12s %8s %12s\n", "total", "", roundDur(selfSum)))
	if wall > 0 {
		sb.WriteString(fmt.Sprintf("%-12s %8s %12s\n", "wall", "", roundDur(wall)))
	}
	return sb.String()
}

// MergeStageStats folds src into dst by stage name (summing counts and
// times, widening min/max) and returns the merged slice ordered by self
// time descending. It lets callers aggregate per-program tracers —
// each internally laminar, so each with correct self times — into one
// corpus-level breakdown without requiring cross-program span nesting.
func MergeStageStats(dst, src []StageStat) []StageStat {
	byName := make(map[string]StageStat, len(dst)+len(src))
	for _, sts := range [2][]StageStat{dst, src} {
		for _, st := range sts {
			prev, seen := byName[st.Name]
			if !seen {
				byName[st.Name] = st
				continue
			}
			prev.Count += st.Count
			prev.Total += st.Total
			prev.Self += st.Self
			prev.Degraded += st.Degraded
			if st.Min < prev.Min {
				prev.Min = st.Min
			}
			if st.Max > prev.Max {
				prev.Max = st.Max
			}
			byName[st.Name] = prev
		}
	}
	out := make([]StageStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// roundDur trims durations for table output.
func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
