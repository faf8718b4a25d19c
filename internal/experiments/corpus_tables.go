package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/slr"
	"repro/internal/str"
)

// TableIVRow describes one project of the test corpus.
type TableIVRow struct {
	Software     string
	CFiles       int
	MeasuredKLOC float64
	CalibKLOC    float64
	CalibPPKLOC  float64
}

// RunTableIV generates the corpus and measures it. fillerPerFile scales
// the synthetic bulk (see internal/corpus).
func RunTableIV(fillerPerFile int) []TableIVRow {
	var rows []TableIVRow
	for _, p := range corpus.Generate(fillerPerFile) {
		r := TableIVRow{
			Software:    p.Name,
			CFiles:      len(p.Files),
			CalibKLOC:   p.Calibration.KLOC,
			CalibPPKLOC: p.Calibration.PPKLOC,
		}
		for _, f := range p.Files {
			r.MeasuredKLOC += float64(f.LOC()) / 1000.0
		}
		rows = append(rows, r)
	}
	return rows
}

// FormatTableIV renders Table IV.
func FormatTableIV(rows []TableIVRow) string {
	var sb strings.Builder
	sb.WriteString("Table IV: Test Programs\n")
	sb.WriteString(fmt.Sprintf("%-10s %10s %14s %12s %12s\n",
		"Software", "# C Files", "measured KLOC", "KLOC(paper)", "PP KLOC(paper)"))
	var files int
	var mk, ck, cpp float64
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-10s %10d %14.1f %12.1f %12.1f\n",
			r.Software, r.CFiles, r.MeasuredKLOC, r.CalibKLOC, r.CalibPPKLOC))
		files += r.CFiles
		mk += r.MeasuredKLOC
		ck += r.CalibKLOC
		cpp += r.CalibPPKLOC
	}
	sb.WriteString(fmt.Sprintf("%-10s %10d %14.1f %12.1f %12.1f\n", "Total", files, mk, ck, cpp))
	sb.WriteString("\nPaper: 645 files, 1.7 MLOC preprocessed. The synthetic corpus plants the\n")
	sb.WriteString("paper's exact call-site and variable mixes; KLOC scales with -filler.\n")
	return sb.String()
}

// TableVRow is one project row of Table V.
type TableVRow struct {
	Software    string
	Unsafe      int
	Transformed int
}

// Pct returns the transformed percentage.
func (r TableVRow) Pct() float64 {
	if r.Unsafe == 0 {
		return 0
	}
	return 100 * float64(r.Transformed) / float64(r.Unsafe)
}

// Figure2Row is one bar of Figure 2.
type Figure2Row struct {
	Function    string
	Transformed int
	Total       int
}

// SLRCorpusResult aggregates the SLR run over the corpus.
type SLRCorpusResult struct {
	Rows    []TableVRow
	PerFunc []Figure2Row
	// FailureCounts maps the Section IV-B failure classes to occurrence
	// counts.
	FailureCounts map[string]int
}

// RunTableV applies SLR to every file of the corpus and aggregates
// Table V, Figure 2 and the failure taxonomy.
func RunTableV() (*SLRCorpusResult, error) {
	res := &SLRCorpusResult{FailureCounts: make(map[string]int)}
	perFn := make(map[string]*Figure2Row)
	for _, p := range corpus.Generate(0) {
		row := TableVRow{Software: p.Name}
		for _, f := range p.Files {
			snap, err := analysis.Parse(f.Name, f.Source)
			if err != nil {
				return nil, fmt.Errorf("experiments: parse %s: %w", f.Name, err)
			}
			out, err := slr.NewTransformer(snap, nil).ApplyAll()
			if err != nil {
				return nil, fmt.Errorf("experiments: SLR %s: %w", f.Name, err)
			}
			for _, site := range out.Sites {
				row.Unsafe++
				e, ok := perFn[site.Function]
				if !ok {
					e = &Figure2Row{Function: site.Function}
					perFn[site.Function] = e
				}
				e.Total++
				if site.Applied {
					row.Transformed++
					e.Transformed++
				} else if site.Failure != nil {
					res.FailureCounts[site.Failure.Reason.String()]++
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	order := []string{"strcpy", "strcat", "sprintf", "vsprintf", "memcpy", "gets"}
	for _, fn := range order {
		if e, ok := perFn[fn]; ok {
			res.PerFunc = append(res.PerFunc, *e)
		}
	}
	return res, nil
}

// FormatTableV renders Table V.
func FormatTableV(res *SLRCorpusResult) string {
	var sb strings.Builder
	sb.WriteString("Table V: Running SLR on Test Programs\n")
	sb.WriteString(fmt.Sprintf("%-10s %18s %14s %14s\n",
		"Software", "# Unsafe Functions", "# Transformed", "% Transformed"))
	var u, tr int
	for _, r := range res.Rows {
		sb.WriteString(fmt.Sprintf("%-10s %18d %14d %13.2f%%\n",
			r.Software, r.Unsafe, r.Transformed, r.Pct()))
		u += r.Unsafe
		tr += r.Transformed
	}
	sb.WriteString(fmt.Sprintf("%-10s %18d %14d %13.2f%%\n", "Total", u, tr,
		100*float64(tr)/float64(u)))
	sb.WriteString("\nPaper: 317 candidates, 259 replaced (81.7%).\n")
	return sb.String()
}

// FormatFigure2 renders Figure 2 as a text bar chart.
func FormatFigure2(res *SLRCorpusResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 2: Changes in Unsafe Functions by SLR\n")
	for _, r := range res.PerFunc {
		pct := 0.0
		if r.Total > 0 {
			pct = 100 * float64(r.Transformed) / float64(r.Total)
		}
		bar := strings.Repeat("#", int(pct/2.5))
		sb.WriteString(fmt.Sprintf("%-9s %4d/%-4d (%5.1f%%) %s\n",
			r.Function, r.Transformed, r.Total, pct, bar))
	}
	sb.WriteString("\nPaper: strcpy 28/39 (71.8%), strcat 8/8 (100%), sprintf 150/153 (98.0%),\n")
	sb.WriteString("vsprintf 1/2 (50%), memcpy 72/115 (62.6%).\n")
	return sb.String()
}

// FormatFailureTaxonomy renders the Section IV-B failure breakdown.
func FormatFailureTaxonomy(res *SLRCorpusResult) string {
	var sb strings.Builder
	sb.WriteString("SLR precondition failures (Section IV-B taxonomy)\n")
	keys := make([]string, 0, len(res.FailureCounts))
	for k := range res.FailureCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		sb.WriteString(fmt.Sprintf("  %-55s %4d\n", k, res.FailureCounts[k]))
		total += res.FailureCounts[k]
	}
	sb.WriteString(fmt.Sprintf("  %-55s %4d\n", "total", total))
	sb.WriteString("\nPaper: 58 failures; most lacked a reaching heap allocation; one aliased\n")
	sb.WriteString("struct member; one array of buffers; one ternary allocation.\n")
	return sb.String()
}

// TableVIRow is one project row of Table VI.
type TableVIRow struct {
	Software   string
	Identified int // C1
	Replaced   int // C2
	FailedPre  int // C3
}

// RunTableVI applies STR to every file of the corpus.
func RunTableVI() ([]TableVIRow, error) {
	var rows []TableVIRow
	for _, p := range corpus.Generate(0) {
		row := TableVIRow{Software: p.Name}
		for _, f := range p.Files {
			snap, err := analysis.Parse(f.Name, f.Source)
			if err != nil {
				return nil, fmt.Errorf("experiments: parse %s: %w", f.Name, err)
			}
			out, err := str.NewTransformer(snap).ApplyAll()
			if err != nil {
				return nil, fmt.Errorf("experiments: STR %s: %w", f.Name, err)
			}
			for _, v := range out.Vars {
				if !v.IsPointer {
					continue
				}
				row.Identified++
				switch {
				case v.Applied:
					row.Replaced++
				default:
					row.FailedPre++
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTableVI renders Table VI.
func FormatTableVI(rows []TableVIRow) string {
	var sb strings.Builder
	sb.WriteString("Table VI: Running STR on Test Programs\n")
	sb.WriteString(fmt.Sprintf("%-10s %12s %10s %12s %12s %18s\n",
		"Software", "Identified", "Replaced", "FailedPre", "% Replaced", "% PassedPre Repl."))
	var c1, c2, c3 int
	for _, r := range rows {
		pctAll := 100 * float64(r.Replaced) / float64(r.Identified)
		pctPassed := 100.0
		if r.Identified-r.FailedPre > 0 {
			pctPassed = 100 * float64(r.Replaced) / float64(r.Identified-r.FailedPre)
		}
		sb.WriteString(fmt.Sprintf("%-10s %12d %10d %12d %11.2f%% %17.2f%%\n",
			r.Software, r.Identified, r.Replaced, r.FailedPre, pctAll, pctPassed))
		c1 += r.Identified
		c2 += r.Replaced
		c3 += r.FailedPre
	}
	sb.WriteString(fmt.Sprintf("%-10s %12d %10d %12d %11.2f%% %17.2f%%\n",
		"Total", c1, c2, c3,
		100*float64(c2)/float64(c1), 100*float64(c2)/float64(c1-c3)))
	sb.WriteString("\nPaper: 296 identified, 59 failed the interprocedural precondition,\n")
	sb.WriteString("237 replaced — 80.07% of all, 100% of those passing preconditions.\n")
	return sb.String()
}
