// Package harness runs the paper's end-to-end protocol on one program:
// execute the good and bad functions under the checked interpreter, apply
// SLR and then STR in batch mode, re-execute, and judge the two claims of
// Section IV-A — the bad function's overflow is fixed, and the good
// function's observable behavior is preserved.
package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cinterp"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/stralloc"
	"repro/internal/typecheck"
)

// Verdict is the outcome of verifying one program.
type Verdict struct {
	ID string

	// Pre/Post execution results for the good and bad entry points.
	PreGood, PreBad   *cinterp.Result
	PostGood, PostBad *cinterp.Result

	// SLRSites / SLRApplied count candidate and transformed call sites.
	SLRSites, SLRApplied int
	// STRVars / STRApplied count candidate and replaced variables.
	STRVars, STRApplied int

	// VulnDetected: the untransformed bad function produced at least one
	// memory-safety violation (sanity check on the benchmark program).
	VulnDetected bool
	// Fixed: the transformed bad function produced no violations.
	Fixed bool
	// Preserved: the transformed good function produced no violations and
	// byte-identical output to the original good function.
	Preserved bool

	// TransformedSource is the final program text (after SLR then STR).
	TransformedSource string

	// Degraded lists the analyses the transformation pipeline had to cut
	// short (budget exhaustion, skipped stages); empty for a full-fidelity
	// run. Mirrors core.Report.Degraded.
	Degraded []string
}

// Options configures verification.
type Options struct {
	// Stdin lines are re-queued before every run.
	Stdin []string
	// Limits bound each execution.
	Limits cinterp.Limits
	// SkipSLR / SkipSTR disable one transformation (for ablations).
	SkipSLR bool
	SkipSTR bool
	// Backend names the repair dialect SLR rewrites into ("" = glib).
	// The checked interpreter models every registered dialect's safe
	// functions, so verification runs the same protocol regardless.
	Backend string
}

// Verify runs the full protocol. goodEntry and badEntry name the two
// functions to execute.
func Verify(id, source, goodEntry, badEntry string, opts Options) (*Verdict, error) {
	v := &Verdict{ID: id}

	var err error
	v.PreGood, err = runOne(id+" (pre,good)", source, goodEntry, opts)
	if err != nil {
		return nil, err
	}
	v.PreBad, err = runOne(id+" (pre,bad)", source, badEntry, opts)
	if err != nil {
		return nil, err
	}
	v.VulnDetected = v.PreBad.HasViolations()

	transformed, err := Transform(id, source, opts, v)
	if err != nil {
		return nil, err
	}
	v.TransformedSource = transformed

	v.PostGood, err = runOne(id+" (post,good)", transformed, goodEntry, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: post-transform good run: %w", err)
	}
	v.PostBad, err = runOne(id+" (post,bad)", transformed, badEntry, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: post-transform bad run: %w", err)
	}

	v.Fixed = !v.PostBad.HasViolations()
	v.Preserved = !v.PostGood.HasViolations() && v.PostGood.Stdout == v.PreGood.Stdout
	return v, nil
}

// Transform applies SLR then STR in batch mode through the pipeline's
// composition root (core.Fix), recording counts and degradations in v
// (which may be nil). Running through core.Fix means the harness
// exercises the exact code path users get — fault boundary included —
// and the equivalence suite pins both to identical decisions.
func Transform(id, source string, opts Options, v *Verdict) (string, error) {
	rep, err := core.Fix(context.Background(), id+".c", source, core.Options{
		DisableSLR:   opts.SkipSLR,
		DisableSTR:   opts.SkipSTR,
		SelectOffset: -1,
		Backend:      opts.Backend,
	})
	if err != nil {
		return "", fmt.Errorf("harness: transform: %w", err)
	}
	if v != nil {
		if rep.SLR != nil {
			v.SLRSites = rep.SLR.Candidates()
			v.SLRApplied = rep.SLR.AppliedCount()
		}
		if rep.STR != nil {
			v.STRVars = rep.STR.Candidates()
			v.STRApplied = rep.STR.AppliedCount()
		}
		v.Degraded = append(v.Degraded, rep.Degraded...)
	}
	return rep.Source, nil
}

// needsStralloc reports STR output that names the stralloc type without
// defining it: what Transform returns, which carries no support code.
func needsStralloc(src string) bool {
	return strings.Contains(src, "stralloc") && !strings.Contains(src, "typedef struct stralloc")
}

// Run parses, checks and runs entry in source under the checked
// interpreter, returning the result and the steps it took. Text that
// needs the stralloc library (needsStralloc) runs with it prepended, and
// its violations still name lines of source; one inside the library
// names line 0.
func Run(filename, source, entry string, stdin []string, limits cinterp.Limits) (*cinterp.Result, int64, error) {
	prefix := ""
	if needsStralloc(source) {
		prefix = stralloc.FullSource() + "\n"
	}
	unit, err := cparse.Parse(filename, prefix+source)
	if err != nil {
		return nil, 0, fmt.Errorf("parse: %w", err)
	}
	typecheck.Check(unit)
	in, err := cinterp.New(unit, limits)
	if err != nil {
		return nil, 0, err
	}
	in.SetStdin(stdin)
	res, err := in.Run(entry)
	if err != nil {
		return nil, 0, fmt.Errorf("run: %w", err)
	}
	shift := strings.Count(prefix, "\n")
	for i := range res.Violations {
		res.Violations[i].Pos.Line = max(res.Violations[i].Pos.Line-shift, 0)
	}
	return res, in.Steps(), nil
}

// runOne runs one entry point for Verify.
func runOne(label, source, entry string, opts Options) (*cinterp.Result, error) {
	res, _, err := Run(label+".c", source, entry, opts.Stdin, opts.Limits)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", label, err)
	}
	return res, nil
}
