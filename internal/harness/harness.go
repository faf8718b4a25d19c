// Package harness runs the paper's end-to-end protocol on one program:
// execute the good and bad functions under the checked interpreter, apply
// SLR and then STR in batch mode, re-execute, and judge the two claims of
// Section IV-A — the bad function's overflow is fixed, and the good
// function's observable behavior is preserved.
package harness

import (
	"context"
	"fmt"

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

	runSource := transformed
	if needsStralloc(transformed) {
		runSource = stralloc.FullSource() + "\n" + transformed
	}
	v.PostGood, err = runOne(id+" (post,good)", runSource, goodEntry, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: post-transform good run: %w", err)
	}
	v.PostBad, err = runOne(id+" (post,bad)", runSource, badEntry, opts)
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

// needsStralloc detects STR output (the emitted type name).
func needsStralloc(src string) bool {
	return containsWord(src, "stralloc")
}

func containsWord(s, w string) bool {
	for i := 0; i+len(w) <= len(s); i++ {
		if s[i:i+len(w)] == w {
			return true
		}
	}
	return false
}

// runOne parses, checks and executes one entry point.
func runOne(label, source, entry string, opts Options) (*cinterp.Result, error) {
	unit, err := cparse.Parse(label+".c", source)
	if err != nil {
		return nil, fmt.Errorf("harness: parse %s: %w", label, err)
	}
	typecheck.Check(unit)
	in, err := cinterp.New(unit, opts.Limits)
	if err != nil {
		return nil, fmt.Errorf("harness: init %s: %w", label, err)
	}
	in.SetStdin(opts.Stdin)
	res, err := in.Run(entry)
	if err != nil {
		return nil, fmt.Errorf("harness: run %s: %w", label, err)
	}
	return res, nil
}
