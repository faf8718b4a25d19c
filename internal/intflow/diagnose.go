package intflow

import (
	"fmt"
	"strings"

	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/ctype"
	"repro/internal/interval"
	"repro/internal/overflow"
)

// Finding re-exports the shared finding type: intflow findings merge
// into the same lint report as the buffer oracle's, so they use the
// same shape (with the Guard field carrying the suggested precondition
// check for CWE-680 allocation sinks).
type Finding = overflow.Finding

// ichecker collects findings during the replay pass over a solved
// function. It is attached to a copy of the iproblem whose transfer
// functions did the solving, so findings come from exactly the
// arithmetic the fixpoint evaluated.
type ichecker struct {
	overflow.Collector
}

// reportWrap records a CWE-190 (wraparound past the top of the type) or
// CWE-191 (underflow below its bottom) finding at site.
func (c *ichecker) reportWrap(site cast.Expr, cwe int, definite bool, raw interval.Interval, t ctype.Type, lo, hi int64, opName, guard string) {
	sev := overflow.SevPossible
	if definite {
		sev = overflow.SevDefinite
	}
	var msg string
	if cwe == 190 {
		msg = fmt.Sprintf("%s result %s exceeds %s maximum %s", opName, raw, typeName(t), boundLit(hi, lo >= 0))
	} else {
		msg = fmt.Sprintf("%s result %s falls below %s minimum %d", opName, raw, typeName(t), lo)
	}
	f := Finding{
		CWE:          cwe,
		Severity:     sev,
		Msg:          msg,
		Guard:        guard,
		SuggestedFix: "compute in a wider type or add the suggested precondition guard",
	}
	c.Add(f, site)
}

// report680 records an overflow-to-allocation finding: a possibly
// wrapped value reached an allocation-size sink argument.
func (c *ichecker) report680(call *cast.CallExpr, arg cast.Expr, av ival) {
	sev := overflow.SevPossible
	if av.definite {
		sev = overflow.SevDefinite
	}
	guard := av.guard
	if guard == "" {
		guard = c.fallbackSizeGuard(arg)
	}
	f := Finding{
		CWE:      680,
		Severity: sev,
		Msg: fmt.Sprintf("allocation size %q may have wrapped before reaching %s",
			c.srcText(arg), call.Callee()),
		Guard:        guard,
		SuggestedFix: "guard the size computation against wraparound before allocating",
	}
	if id, ok := cast.Unparen(arg).(*cast.Ident); ok && id.Sym != nil {
		f.Object = id.Sym.Name
	}
	c.Add(f, call)
}

// --- suggested precondition guards (IntRepair-style) ------------------------

// guardForBinop renders the precondition check that would prevent the
// wrap at a binary arithmetic site: `if (a > MAX / b)` for products,
// `if (a > MAX - b)` for sums, `if (a < b)` for unsigned differences.
func (c *ichecker) guardForBinop(site cast.Expr, op cast.BinaryOp) string {
	x, ok := site.(*cast.BinaryExpr)
	var ax, bx cast.Expr
	if ok {
		ax, bx = x.X, x.Y
	} else if as, isAssign := site.(*cast.AssignExpr); isAssign {
		ax, bx = as.LHS, as.RHS
	} else {
		return ""
	}
	lo, hi, okB := typeBounds(site.Type())
	if !okB || hi >= interval.PosInf {
		return ""
	}
	a, b := c.srcText(ax), c.srcText(bx)
	max := boundLit(hi, lo >= 0)
	switch op {
	case cast.BinaryMul:
		return fmt.Sprintf("if (%s != 0 && %s > %s / %s) { /* multiplication would wrap */ }", b, a, max, b)
	case cast.BinaryAdd:
		return fmt.Sprintf("if (%s > %s - %s) { /* addition would wrap */ }", a, max, b)
	case cast.BinarySub:
		if lo >= 0 {
			return fmt.Sprintf("if (%s < %s) { /* subtraction would wrap below zero */ }", a, b)
		}
		return ""
	case cast.BinaryShl:
		return fmt.Sprintf("if (%s > (%s >> %s)) { /* shift would wrap */ }", a, max, b)
	}
	return ""
}

// guardForConvert renders the range check that would catch a value
// truncated or sign-flipped by a conversion.
func (c *ichecker) guardForConvert(site cast.Expr, raw interval.Interval, to ctype.Type) string {
	lo, hi, ok := typeBounds(to)
	if !ok {
		return ""
	}
	var operand cast.Expr
	switch x := site.(type) {
	case *cast.CastExpr:
		operand = x.Operand
	case *cast.AssignExpr:
		operand = x.RHS
	case cast.Expr:
		operand = x
	}
	v := c.srcText(operand)
	if v == "" {
		return ""
	}
	switch {
	case hi < interval.PosInf && raw.Hi > hi:
		return fmt.Sprintf("if (%s > %s) { /* value would be truncated */ }", v, boundLit(hi, lo >= 0))
	case raw.Lo < lo:
		return fmt.Sprintf("if (%s < %d) { /* value would wrap below %d */ }", v, lo, lo)
	}
	return ""
}

// fallbackSizeGuard is the generic guard for a tainted allocation size
// whose wrap site produced no specific check.
func (c *ichecker) fallbackSizeGuard(arg cast.Expr) string {
	v := c.srcText(arg)
	if v == "" {
		return ""
	}
	return fmt.Sprintf("if (%s == 0 || %s > SIZE_MAX / 2) { /* size may have wrapped; recompute in a wider type */ }", v, v)
}

// srcText returns the whitespace-normalized source spelling of e, with
// comments masked out. Masking matters for incremental sessions: the
// dependency hash ignores comments, so a memoized finding survives a
// comment-only edit — quoted spellings must therefore not depend on
// comments either, or the memoized Msg/Guard would differ from a fresh
// run's.
func (c *ichecker) srcText(e cast.Expr) string {
	if e == nil || c.File == nil {
		return ""
	}
	masked := clex.MaskComments(c.File.Slice(e.Extent()))
	return strings.Join(strings.Fields(masked), " ")
}

// boundLit renders a type's maximum as a C literal (suffixed for the
// unsigned 32-bit maximum so the guard compiles without warnings).
func boundLit(hi int64, unsigned bool) string {
	if unsigned && hi > 2147483647 {
		return fmt.Sprintf("%dU", hi)
	}
	return fmt.Sprintf("%d", hi)
}

func typeName(t ctype.Type) string {
	if t == nil {
		return "integer"
	}
	return ctype.Unqualify(t).String()
}
