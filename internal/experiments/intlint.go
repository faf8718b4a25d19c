package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/samate"
)

// IntLintRow aggregates the integer-overflow oracle's verdicts on one CWE
// class of the synthetic integer-overflow corpus. There is no dynamic
// cross-validation column: integer wraparound is well-defined for the
// unsigned cases and the checked interpreter has no wrap oracle, so the
// ground truth is the corpus's good/bad construction itself.
type IntLintRow struct {
	CWE  int
	Name string
	// Programs actually processed.
	Programs int
	// TP / FN: programs whose bad() function was / was not flagged by the
	// integer-overflow oracle (any finding attributed to the bad call chain).
	TP int
	FN int
	// CWEMatch: flagged bad() programs where some finding also carries the
	// program's exact CWE class.
	CWEMatch int
	// Guarded: flagged bad() programs where some finding carries a
	// suggested precondition guard.
	Guarded int
	// FP: programs whose good() function was flagged.
	FP     int
	Errors int
}

// Precision is the program-level precision: flagged-bad over all flagged.
func (r IntLintRow) Precision() float64 {
	if r.TP+r.FP == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FP)
}

// Recall is the program-level recall over the seeded wraparounds.
func (r IntLintRow) Recall() float64 {
	if r.TP+r.FN == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FN)
}

// RunIntLint generates the integer-overflow corpus and runs the
// integer-overflow oracle (`cfix -lint -checks=int`) on every program.
func RunIntLint(opts LintOptions) ([]IntLintRow, error) {
	if opts.Stride < 1 {
		opts.Stride = 1
	}

	var rows []IntLintRow
	for _, cwe := range samate.IntCWEs {
		progs := samate.IntGenerate(cwe, samate.IntTableCounts[cwe])
		row := IntLintRow{CWE: cwe, Name: samate.CWENames[cwe]}

		picked := make([]samate.Program, 0, len(progs)/opts.Stride+1)
		for i := 0; i < len(progs); i += opts.Stride {
			picked = append(picked, progs[i])
		}
		results := analysis.Map(opts.Workers, picked,
			func(_ int, p samate.Program) intLintOutcome { return intLintOne(p) })

		for _, o := range results {
			row.Programs++
			if o.err != nil {
				row.Errors++
				continue
			}
			if o.badFlag {
				row.TP++
			} else {
				row.FN++
			}
			if o.cweOK {
				row.CWEMatch++
			}
			if o.guarded {
				row.Guarded++
			}
			if o.goodFlag {
				row.FP++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// intLintOutcome is the per-program result of the integer-overflow oracle.
type intLintOutcome struct {
	err                               error
	badFlag, cweOK, guarded, goodFlag bool
}

// intLintOne runs the integer-overflow oracle on one program, as `cfix
// -lint -checks int` does.
func intLintOne(p samate.Program) (o intLintOutcome) {
	fs, err := core.Analyze(context.Background(), p.ID+".c", p.Source, core.Options{Checks: "int"})
	if err != nil {
		o.err = err
		return o
	}
	for _, f := range fs {
		if attributed(f, p.ID+"_bad") {
			o.badFlag = true
			if f.CWE == p.CWE {
				o.cweOK = true
			}
			if f.Guard != "" {
				o.guarded = true
			}
		}
		if attributed(f, p.ID+"_good") {
			o.goodFlag = true
		}
	}
	return o
}

// FormatIntLint renders the integer-overflow oracle table.
func FormatIntLint(rows []IntLintRow) string {
	var sb strings.Builder
	sb.WriteString("Integer-overflow oracle on the synthetic CWE-190/680 corpus (-checks=int)\n")
	sb.WriteString(fmt.Sprintf("%-46s %8s %6s %6s %8s %8s %6s %6s %6s\n",
		"CWE", "Programs", "TP", "FN", "CWEok", "Guarded", "FP", "Prec", "Rec"))
	var tot IntLintRow
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-46s %8d %6d %6d %8d %8d %6d %5.2f %6.2f\n",
			fmt.Sprintf("CWE %d: %s", r.CWE, r.Name),
			r.Programs, r.TP, r.FN, r.CWEMatch, r.Guarded, r.FP,
			r.Precision(), r.Recall()))
		tot.Programs += r.Programs
		tot.TP += r.TP
		tot.FN += r.FN
		tot.CWEMatch += r.CWEMatch
		tot.Guarded += r.Guarded
		tot.FP += r.FP
		tot.Errors += r.Errors
	}
	sb.WriteString(fmt.Sprintf("%-46s %8d %6d %6d %8d %8d %6d %5.2f %6.2f\n",
		"Total", tot.Programs, tot.TP, tot.FN, tot.CWEMatch, tot.Guarded, tot.FP,
		tot.Precision(), tot.Recall()))
	if tot.Errors > 0 {
		sb.WriteString(fmt.Sprintf("(%d programs failed to process)\n", tot.Errors))
	}
	sb.WriteString("\nTP/FN: bad() flagged / missed by the integer-overflow oracle; CWEok: flagged\n")
	sb.WriteString("with the program's exact CWE; Guarded: a suggested precondition guard was\n")
	sb.WriteString("attached; FP: good() flagged.\n")
	return sb.String()
}
