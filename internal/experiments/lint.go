package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cinterp"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/overflow"
	"repro/internal/samate"
	"repro/internal/typecheck"
)

// LintRow aggregates the static overflow oracle's verdicts on one CWE
// class of the SAMATE corpus, cross-validated against the checked
// interpreter (the dynamic oracle used everywhere else in the paper).
type LintRow struct {
	CWE  int
	Name string
	// Programs actually processed.
	Programs int
	// TP / FN: programs whose bad() function was / was not flagged by the
	// static oracle (any finding attributed to the bad call chain).
	TP int
	FN int
	// CWEMatch: flagged bad() programs where some finding also carries the
	// program's exact CWE class.
	CWEMatch int
	// FP: programs whose good() function was flagged.
	FP int
	// DynBad: programs where the interpreter observes a violation running
	// bad(); Agree: programs where static and dynamic oracles both flag
	// bad().
	DynBad int
	Agree  int
	Errors int
}

// Precision is the program-level precision: flagged-bad over all flagged.
func (r LintRow) Precision() float64 {
	if r.TP+r.FP == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FP)
}

// Recall is the program-level recall over the seeded vulnerabilities.
func (r LintRow) Recall() float64 {
	if r.TP+r.FN == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FN)
}

// LintOptions configures the lint experiment.
type LintOptions struct {
	// Stride processes every Stride-th program (1 = the full corpus).
	Stride int
	// Workers bounds the shared pool (internal/analysis); 0 = one per CPU.
	Workers int
}

// RunLint generates the Juliet-style corpus, runs the static overflow
// oracle on every program, and cross-validates its bad() verdicts against
// the checked interpreter.
func RunLint(opts LintOptions) ([]LintRow, error) {
	if opts.Stride < 1 {
		opts.Stride = 1
	}

	var rows []LintRow
	for _, cwe := range samate.CWEs {
		progs := samate.Generate(cwe, samate.TableIIICounts[cwe])
		row := LintRow{CWE: cwe, Name: samate.CWENames[cwe]}

		picked := make([]samate.Program, 0, len(progs)/opts.Stride+1)
		for i := 0; i < len(progs); i += opts.Stride {
			picked = append(picked, progs[i])
		}
		results := analysis.Map(opts.Workers, picked,
			func(_ int, p samate.Program) lintOutcome { return lintOne(p) })

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
			if o.goodFlag {
				row.FP++
			}
			if o.dynBad {
				row.DynBad++
				if o.badFlag {
					row.Agree++
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// lintOutcome is the per-program result of running both oracles.
type lintOutcome struct {
	err                      error
	badFlag, cweOK, goodFlag bool
	dynBad                   bool
}

// lintOne runs both oracles on one program: the static one as `cfix
// -lint` does, the dynamic one under the checked interpreter.
func lintOne(p samate.Program) (o lintOutcome) {
	fs, err := core.Analyze(context.Background(), p.ID+".c", p.Source, core.Options{})
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
		}
		if attributed(f, p.ID+"_good") {
			o.goodFlag = true
		}
	}
	// Dynamic cross-validation: execute bad() under the checked
	// interpreter on a fresh parse (interpretation mutates globals).
	runUnit, err := cparse.Parse(p.ID+".c", p.Source)
	if err != nil {
		o.err = err
		return o
	}
	typecheck.Check(runUnit)
	in, err := cinterp.New(runUnit, cinterp.Limits{})
	if err != nil {
		o.err = err
		return o
	}
	in.SetStdin(stdinFor(p))
	res, err := in.Run(p.ID + "_bad")
	if err != nil {
		o.err = err
		return o
	}
	o.dynBad = len(res.Violations) > 0
	return o
}

// attributed reports whether the finding belongs to fn's call chain:
// either the access is in fn itself, or an interprocedural context
// passes through fn.
func attributed(f overflow.Finding, fn string) bool {
	if f.Function == fn {
		return true
	}
	for _, ctx := range f.Contexts {
		if strings.Contains(ctx, fn) {
			return true
		}
	}
	return false
}

// FormatLint renders the cross-validation table.
func FormatLint(rows []LintRow) string {
	var sb strings.Builder
	sb.WriteString("Static overflow oracle vs checked interpreter (synthetic Juliet corpus)\n")
	sb.WriteString(fmt.Sprintf("%-42s %8s %6s %6s %8s %6s %6s %6s %8s %6s\n",
		"CWE", "Programs", "TP", "FN", "CWEok", "FP", "Prec", "Rec", "DynBad", "Agree"))
	var tot LintRow
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-42s %8d %6d %6d %8d %6d %5.2f %6.2f %8d %6d\n",
			fmt.Sprintf("CWE %d: %s", r.CWE, r.Name),
			r.Programs, r.TP, r.FN, r.CWEMatch, r.FP,
			r.Precision(), r.Recall(), r.DynBad, r.Agree))
		tot.Programs += r.Programs
		tot.TP += r.TP
		tot.FN += r.FN
		tot.CWEMatch += r.CWEMatch
		tot.FP += r.FP
		tot.DynBad += r.DynBad
		tot.Agree += r.Agree
		tot.Errors += r.Errors
	}
	sb.WriteString(fmt.Sprintf("%-42s %8d %6d %6d %8d %6d %5.2f %6.2f %8d %6d\n",
		"Total", tot.Programs, tot.TP, tot.FN, tot.CWEMatch, tot.FP,
		tot.Precision(), tot.Recall(), tot.DynBad, tot.Agree))
	if tot.Errors > 0 {
		sb.WriteString(fmt.Sprintf("(%d programs failed to process)\n", tot.Errors))
	}
	sb.WriteString("\nTP/FN: bad() flagged / missed by the static oracle; CWEok: flagged with the\n")
	sb.WriteString("program's exact CWE; FP: good() flagged; DynBad: interpreter observes the\n")
	sb.WriteString("overflow executing bad(); Agree: both oracles flag bad().\n")
	return sb.String()
}
