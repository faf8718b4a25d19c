package core

import (
	"context"

	"repro/internal/analysis"
)

// FileInput names one preprocessed C translation unit for batch
// processing.
type FileInput struct {
	// Filename is used in diagnostics and carried through to the output.
	Filename string
	// Source is the unit's text.
	Source string
}

// FileOutput pairs one batch input with its fix outcome. Exactly one of
// Report and Err is set. A panic inside the file's unit of work arrives
// here as a *fault.PanicError carrying the stack; a cancelled or timed
// out file carries the context error. Either way the rest of the batch
// is unaffected.
type FileOutput struct {
	Filename string
	Report   *Report
	Err      error
}

// FixAll applies Fix to every input through a bounded worker pool — the
// parse-once, analyze-once, fix-many pipeline. Each file is processed
// independently (its own snapshot and its own fault boundary), so
// per-file results are identical to sequential Fix calls and one file's
// crash or timeout cannot take down its batch-mates. ctx cancels the
// whole batch: files not yet started fail fast with the context error.
// workers <= 0 means one worker per CPU. Results come back in input
// order regardless of completion order.
func FixAll(ctx context.Context, files []FileInput, opts Options, workers int) []FileOutput {
	return analysis.MapCtx(ctx, workers, files, func(ctx context.Context, _ int, in FileInput) FileOutput {
		rep, err := Fix(ctx, in.Filename, in.Source, opts)
		return FileOutput{Filename: in.Filename, Report: rep, Err: err}
	})
}
