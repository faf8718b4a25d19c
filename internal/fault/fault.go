// Package fault provides the fault-containment primitives shared by the
// fixpoint solvers and the batch pipeline: cooperative cancellation,
// iteration budgets, and panic-to-error recovery.
//
// The design follows the containment model of DESIGN.md Section 9. A
// solver observes its Limits at iteration boundaries through a Meter.
// Cancellation (a done context) aborts the solve by panicking with a
// private sentinel that Recover — installed once per file at the
// pipeline boundary (core.Fix / core.Analyze) — converts back into the
// context's error. Budget exhaustion never aborts: Meter.Step returns
// false and the solver degrades to its conservative result, recording
// the degradation so no exhausted budget can turn into a silent pass.
//
// This package sits below internal/dataflow, internal/pointsto,
// internal/overflow and internal/analysis and must not import any of
// them.
package fault

import (
	"context"
	"fmt"
	"runtime/debug"
)

// Limits bounds one fixpoint solve. The zero value imposes nothing.
type Limits struct {
	// Ctx, when non-nil, is polled at iteration boundaries; cancellation
	// aborts the enclosing per-file unit of work with the context's
	// error (via the sentinel panic that Recover understands).
	Ctx context.Context
	// Steps bounds the iterations of one fixpoint solve; 0 means
	// unlimited. Exhaustion does not abort: the solver degrades to its
	// conservative top result and reports the degradation.
	Steps int
	// Contexts bounds how many calling contexts an interprocedural pass
	// may explore; 0 means unlimited. Like Steps, exhaustion degrades
	// instead of aborting.
	Contexts int
}

// Meter tracks one solve against its limits. Each solve gets a fresh
// meter, so budgets are deterministic regardless of how many solves a
// file needs or in which order they run.
type Meter struct {
	lim   Limits
	steps int
}

// NewMeter starts metering one solve.
func (l Limits) NewMeter() *Meter { return &Meter{lim: l} }

// Step consumes one solver iteration. It panics with a cancellation
// sentinel when the context is done, and returns false once the step
// budget is exhausted — the caller must then degrade conservatively.
func (m *Meter) Step() bool {
	CheckCtx(m.lim.Ctx)
	m.steps++
	return m.lim.Steps <= 0 || m.steps <= m.lim.Steps
}

// Steps reports how many solver iterations the meter has consumed so
// far — the per-solve effort figure the observability layer attaches to
// stage spans (DESIGN.md Section 11).
func (m *Meter) Steps() int { return m.steps }

// cancelled is the sentinel carried by a cancellation panic. It is
// private so arbitrary panics can never impersonate a cancellation.
type cancelled struct{ err error }

// CheckCtx panics with a cancellation sentinel when ctx is done. A nil
// context never cancels.
func CheckCtx(ctx context.Context) {
	if ctx == nil {
		return
	}
	if err := ctx.Err(); err != nil {
		panic(cancelled{err})
	}
}

// AsCancellation returns the context error carried by a recovered panic
// value when it is a cancellation sentinel, nil otherwise.
func AsCancellation(r any) error {
	if c, ok := r.(cancelled); ok {
		return c.err
	}
	return nil
}

// PanicError is a recovered panic converted to an error. Stack holds
// the goroutine stack captured at the recovery point, so a crash in one
// batch file stays diagnosable after it has been contained.
type PanicError struct {
	// Value is the value the code panicked with.
	Value any
	// Stack is the formatted goroutine stack at recovery time.
	Stack []byte
}

// Error renders the panic value followed by the captured stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// NewPanicError wraps a recovered panic value, capturing the current
// goroutine stack.
func NewPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Recover converts a panic into *err: cancellation sentinels become the
// context's error, everything else becomes a *PanicError carrying the
// stack. It must be installed directly: defer fault.Recover(&err).
// An already-set *err is preserved when there is no panic.
func Recover(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if c := AsCancellation(r); c != nil {
		*err = c
		return
	}
	*err = NewPanicError(r)
}
