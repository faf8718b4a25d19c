// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV): Table I (catalogue), Table II (patterns),
// Table III (SAMATE), Table IV (corpus), Table V + Figure 2 (SLR on real
// code), Table VI (STR on real code), the LibTIFF case study, and the RQ3
// overhead measurements. Each Run* function returns structured rows; each
// Format* function prints them in the paper's layout so results can be
// compared side by side (see EXPERIMENTS.md).
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/samate"
	"repro/internal/stralloc"
)

// CWEResult is one row of Table III plus the RQ1 verification columns.
type CWEResult struct {
	CWE  int
	Name string
	// Backend is the canonical repair dialect the run applied (the same
	// for every row of one run); FormatTableIII prints it so archived
	// tables from different dialects stay distinguishable.
	Backend string
	// Programs actually processed (equals Table III's count at stride 1).
	Programs int
	// SLRApplied / STRApplied count programs where the transformation
	// changed at least one site/variable (the Table III applicability
	// columns).
	SLRApplied int
	STRApplied int
	// KLOC is the corpus size in thousand lines; PPKLOC includes the
	// support headers a preprocessor would inline.
	KLOC   float64
	PPKLOC float64
	// RQ1 verification: the bad function overflowed before, is clean
	// after; the good function's output is preserved.
	VulnDetected int
	Fixed        int
	Preserved    int
	Errors       int
	// WallTime is the summed per-program processing time for this CWE
	// class (the RQ3 cost view: transformation plus the four
	// verification executions).
	WallTime time.Duration
	// Degraded counts programs whose transformation pipeline had to cut
	// an analysis short (budget exhaustion or a skipped stage); 0 on a
	// full-fidelity run.
	Degraded int
	// ColdFix / WarmFix are the summed core.Fix wall times of the
	// cache-warm measurement (TableIIIOptions.CacheWarm): a cold pass
	// that populates a shared content-addressed result cache, then an
	// identical re-run served from it. WarmHits counts the programs the
	// warm pass answered without re-analysis. All zero when the
	// measurement is off.
	ColdFix  time.Duration
	WarmFix  time.Duration
	WarmHits int
}

// TableIIIOptions configures the SAMATE run.
type TableIIIOptions struct {
	// Stride processes every Stride-th program (1 = the full 4,505).
	Stride int
	// Workers bounds the shared pool (internal/analysis); 0 = one per CPU.
	Workers int
	// CacheWarm additionally times a cold core.Fix pass against a warm
	// re-run over a shared content-addressed result cache — the
	// maintenance scenario of re-hardening a mostly-unchanged tree (and
	// cfixd's steady state).
	CacheWarm bool
	// Backend names the repair dialect SLR rewrites into ("" = glib).
	// Unknown names fail the run up front rather than mid-corpus.
	Backend string
}

// RunTableIII generates the Juliet-style corpus, applies SLR and STR to
// every program, executes good/bad pre and post, and aggregates per CWE.
func RunTableIII(opts TableIIIOptions) ([]CWEResult, error) {
	if opts.Stride < 1 {
		opts.Stride = 1
	}
	dialect, err := backend.Canonical(opts.Backend)
	if err != nil {
		return nil, err
	}

	ppOverhead := strings.Count(stralloc.FullSource(), "\n") + 1

	// One cache for the whole run: content addressing keeps CWE classes
	// from colliding, and sharing it mirrors a real daemon's steady state.
	var warmCache *cache.Cache
	if opts.CacheWarm {
		var err error
		warmCache, err = cache.New(256<<20, "")
		if err != nil {
			return nil, err
		}
	}

	var rows []CWEResult
	for _, cwe := range samate.CWEs {
		progs := samate.Generate(cwe, samate.TableIIICounts[cwe])
		row := CWEResult{CWE: cwe, Name: samate.CWENames[cwe], Backend: dialect}

		type verdictOrErr struct {
			v    *harness.Verdict
			err  error
			loc  int
			wall time.Duration
		}
		picked := make([]samate.Program, 0, len(progs)/opts.Stride+1)
		for i := 0; i < len(progs); i += opts.Stride {
			picked = append(picked, progs[i])
		}
		results := analysis.Map(opts.Workers, picked, func(_ int, p samate.Program) verdictOrErr {
			start := time.Now()
			v, err := harness.Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad",
				harness.Options{Stdin: stdinFor(p), Backend: dialect})
			return verdictOrErr{v: v, err: err, loc: p.LOC(), wall: time.Since(start)}
		})

		for _, r := range results {
			row.Programs++
			row.WallTime += r.wall
			if r.err != nil {
				row.Errors++
				continue
			}
			if len(r.v.Degraded) > 0 {
				row.Degraded++
			}
			row.KLOC += float64(r.loc) / 1000.0
			row.PPKLOC += float64(r.loc+ppOverhead) / 1000.0
			if r.v.SLRApplied > 0 {
				row.SLRApplied++
			}
			if r.v.STRApplied > 0 {
				row.STRApplied++
			}
			if r.v.VulnDetected {
				row.VulnDetected++
			}
			if r.v.Fixed {
				row.Fixed++
			}
			if r.v.Preserved {
				row.Preserved++
			}
		}
		if opts.CacheWarm {
			measureCacheWarm(&row, picked, warmCache, dialect, opts.Workers)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// measureCacheWarm times the row's programs through core.Fix twice over
// a shared result cache: the cold pass pays for parses and fixpoint
// solves and populates the cache, the warm pass replays the identical
// requests. The warm pass only starts after the cold pass has finished,
// so every full-fidelity result is already stored.
func measureCacheWarm(row *CWEResult, progs []samate.Program, c *cache.Cache, dialect string, workers int) {
	fixOpts := core.Options{Cache: c, Backend: dialect}
	type sample struct {
		wall time.Duration
		hit  bool
	}
	pass := func() []sample {
		return analysis.Map(workers, progs, func(_ int, p samate.Program) sample {
			start := time.Now()
			rep, err := core.Fix(context.Background(), p.ID, p.Source, fixOpts)
			return sample{wall: time.Since(start), hit: err == nil && rep.Cached}
		})
	}
	for _, s := range pass() {
		row.ColdFix += s.wall
	}
	for _, s := range pass() {
		row.WarmFix += s.wall
		if s.hit {
			row.WarmHits++
		}
	}
}

// stdinFor supplies input for gets/fgets programs.
func stdinFor(p samate.Program) []string {
	if p.CWE != 242 {
		return nil
	}
	long := strings.Repeat("Q", 120)
	return []string{long, long}
}

// FormatTableIII renders the rows in the paper's Table III layout plus
// the RQ1 verification columns.
func FormatTableIII(rows []CWEResult) string {
	var sb strings.Builder
	sb.WriteString("Table III: CWEs Describing Buffer Overflows (synthetic Juliet corpus)\n")
	if len(rows) > 0 && rows[0].Backend != "" {
		sb.WriteString(fmt.Sprintf("Repair dialect: %s\n", rows[0].Backend))
	}
	sb.WriteString(fmt.Sprintf("%-42s %8s %8s %8s %9s %10s %8s %8s %9s %9s %8s\n",
		"CWE", "SLR", "STR", "Programs", "KLOC", "PP KLOC", "VulnDet", "Fixed", "Preserved", "Wall", "Degraded"))
	var tot CWEResult
	for _, r := range rows {
		slr := "-"
		if r.SLRApplied > 0 {
			slr = fmt.Sprintf("%d", r.SLRApplied)
		}
		strCol := "-"
		if r.STRApplied > 0 {
			strCol = fmt.Sprintf("%d", r.STRApplied)
		}
		sb.WriteString(fmt.Sprintf("%-42s %8s %8s %8d %9.1f %10.1f %8d %8d %9d %9s %8d\n",
			fmt.Sprintf("CWE %d: %s", r.CWE, r.Name), slr, strCol,
			r.Programs, r.KLOC, r.PPKLOC, r.VulnDetected, r.Fixed, r.Preserved,
			r.WallTime.Round(time.Millisecond), r.Degraded))
		tot.Programs += r.Programs
		tot.SLRApplied += r.SLRApplied
		tot.STRApplied += r.STRApplied
		tot.KLOC += r.KLOC
		tot.PPKLOC += r.PPKLOC
		tot.VulnDetected += r.VulnDetected
		tot.Fixed += r.Fixed
		tot.Preserved += r.Preserved
		tot.Errors += r.Errors
		tot.WallTime += r.WallTime
		tot.Degraded += r.Degraded
		tot.ColdFix += r.ColdFix
		tot.WarmFix += r.WarmFix
	}
	sb.WriteString(fmt.Sprintf("%-42s %8d %8d %8d %9.1f %10.1f %8d %8d %9d %9s %8d\n",
		"Total", tot.SLRApplied, tot.STRApplied, tot.Programs,
		tot.KLOC, tot.PPKLOC, tot.VulnDetected, tot.Fixed, tot.Preserved,
		tot.WallTime.Round(time.Millisecond), tot.Degraded))
	if tot.Errors > 0 {
		sb.WriteString(fmt.Sprintf("(%d programs failed to process)\n", tot.Errors))
	}
	if tot.Degraded > 0 {
		sb.WriteString(fmt.Sprintf("(%d programs transformed with degraded analyses)\n", tot.Degraded))
	}
	if tot.ColdFix > 0 {
		sb.WriteString("\nResult-cache timing (summed core.Fix wall time: cold pass populates a\nshared content-addressed cache, warm pass replays identical requests):\n")
		sb.WriteString(fmt.Sprintf("%-42s %10s %10s %9s %10s\n",
			"CWE", "Cold", "Warm", "Speedup", "Hits"))
		for _, r := range rows {
			sb.WriteString(fmt.Sprintf("%-42s %10s %10s %9s %10s\n",
				fmt.Sprintf("CWE %d: %s", r.CWE, r.Name),
				r.ColdFix.Round(time.Millisecond), r.WarmFix.Round(time.Millisecond),
				speedup(r.ColdFix, r.WarmFix),
				fmt.Sprintf("%d/%d", r.WarmHits, r.Programs)))
		}
		sb.WriteString(fmt.Sprintf("%-42s %10s %10s %9s %10s\n",
			"Total", tot.ColdFix.Round(time.Millisecond), tot.WarmFix.Round(time.Millisecond),
			speedup(tot.ColdFix, tot.WarmFix),
			fmt.Sprintf("%d/%d", sumWarmHits(rows), tot.Programs)))
	}
	sb.WriteString(fmt.Sprintf("\nPaper: 4,505 programs; SLR applicable to 1,758 (1,096/644/18);\n"))
	sb.WriteString("vulnerability fixed in bad functions of all programs; normal behavior preserved.\n")
	return sb.String()
}

// speedup renders cold/warm as a ratio ("12.3x"); "-" when the warm
// pass was too fast to resolve.
func speedup(cold, warm time.Duration) string {
	if warm <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(cold)/float64(warm))
}

func sumWarmHits(rows []CWEResult) int {
	n := 0
	for _, r := range rows {
		n += r.WarmHits
	}
	return n
}
