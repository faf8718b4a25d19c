// Package overflow implements a static buffer-overflow oracle: an
// interprocedural interval analysis over buffer sizes, pointer offsets and
// string lengths, plus a diagnostics pass that classifies unsafe accesses
// into the CWEs of Table III (121/122/124/126/127/242) with a
// definite/possible severity. It is the second client of the generic
// internal/dataflow solver (the first being reaching definitions) and
// complements the checked interpreter (internal/cinterp): the interpreter
// proves an overflow by executing it, this package predicts one without
// running the program. Its interprocedural engine (Engine) also drives
// the integer-overflow oracle, internal/intflow.
package overflow

import (
	"cmp"
	"fmt"

	"repro/internal/backend"
	"repro/internal/buflen"
	"repro/internal/callgraph"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/ctoken"
	"repro/internal/ctype"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/interval"
)

// Severity grades a finding.
type Severity int

// Severity levels, ordered so the maximum of two can be kept at dedup.
const (
	SevPossible Severity = iota + 1 // intervals overlap the object end
	SevDefinite                     // max access provably exceeds max size
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case SevPossible:
		return "possible"
	case SevDefinite:
		return "definite"
	default:
		return "unknown"
	}
}

// CWEIncomplete marks a degraded finding: not a weakness class but the
// statement that the oracle's budget ran out before it could verify the
// function's accesses. Degraded findings always carry SevPossible — an
// exhausted budget must never read as a clean bill of health.
const CWEIncomplete = 0

// Finding is one statically diagnosed buffer overflow.
type Finding struct {
	// CWE is the classified weakness: 121 (stack overflow), 122 (heap
	// overflow), 124 (underwrite), 126 (over-read), 127 (under-read), or
	// 242 (inherently dangerous function); CWEIncomplete for degraded
	// findings.
	CWE      int
	Severity Severity
	// Function is the name of the function containing the access.
	Function string
	// Object names the overflowed buffer variable when the analysis could
	// resolve the access base to a single symbol ("" otherwise). SLR/STR
	// use it to attach verdicts to their candidate sites.
	Object string
	// Extent is the source range of the offending expression.
	Extent ctoken.Extent
	// Pos is the human-readable location of the extent start.
	Pos ctoken.Position
	// Msg describes the violation in terms of the computed intervals.
	Msg string
	// SuggestedFix names the would-be SLR/STR repair.
	SuggestedFix string
	// Guard, set by the integer-overflow oracle (internal/intflow) for
	// arithmetic and allocation-sink findings, is a suggested
	// IntRepair-style precondition check rendered in C — an annotation
	// only, never applied to the source.
	Guard string
	// Contexts lists interprocedural call chains under which the finding
	// was (re)derived; empty for purely intraprocedural findings.
	Contexts []string
	// Degraded marks a finding emitted because an analysis budget was
	// exhausted, not because an overflow was diagnosed: the function's
	// accesses are unverified and reported at SevPossible.
	Degraded bool
}

// String renders the finding in a compiler-diagnostic style.
func (f Finding) String() string {
	if f.Degraded {
		return fmt.Sprintf("%s: %s analysis degraded in %s: %s (fix: %s)",
			f.Pos, f.Severity, f.Function, f.Msg, f.SuggestedFix)
	}
	return fmt.Sprintf("%s: %s overflow [CWE-%d] in %s: %s (fix: %s)",
		f.Pos, f.Severity, f.CWE, f.Function, f.Msg, f.SuggestedFix)
}

// CWEName returns the short official name of a supported CWE id.
func CWEName(cwe int) string {
	switch cwe {
	case 121:
		return "Stack-based Buffer Overflow"
	case 122:
		return "Heap-based Buffer Overflow"
	case 124:
		return "Buffer Underwrite"
	case 126:
		return "Buffer Over-read"
	case 127:
		return "Buffer Under-read"
	case 190:
		return "Integer Overflow or Wraparound"
	case 191:
		return "Integer Underflow"
	case 242:
		return "Use of Inherently Dangerous Function"
	case 680:
		return "Integer Overflow to Buffer Overflow"
	case CWEIncomplete:
		return "Analysis Incomplete (budget exhausted)"
	default:
		return fmt.Sprintf("CWE-%d", cwe)
	}
}

// Options configures the analyzer.
type Options struct {
	// ContextDepth bounds how many call edges argument intervals are
	// propagated along from each call-graph root. 0 disables the
	// interprocedural pass.
	ContextDepth int
	// Limits bounds the oracle (DESIGN.md Section 9): the context is
	// polled at solver iterations and between interprocedural contexts;
	// Limits.Steps budgets each per-function interval solve and
	// Limits.Contexts budgets the interprocedural pass. Exhausted
	// budgets degrade — affected functions get a SevPossible
	// CWEIncomplete finding instead of silently passing.
	Limits fault.Limits
	// Memo, when non-nil, retains findings across runs keyed by the
	// dependency hashes the facts provider exposes (FuncHashes). It only
	// takes effect on unbudgeted runs (Limits.Steps and Limits.Contexts
	// both zero) with a hash-providing facts snapshot; otherwise the
	// oracle silently runs from scratch, so memoized and fresh analyses
	// can never disagree about degradation.
	Memo *Memo
	// ExternSeeds holds cross-TU argument facts (project mode): calls
	// observed in other translation units to functions this TU defines.
	// Each seed becomes an extra interprocedural context rooted at the
	// callee, letting the oracle report overflows only provable across
	// file boundaries. Seeds enter the memo signature and the result
	// cache fingerprint via SeedFingerprint.
	ExternSeeds []CallSeed
	// Backend is the repair dialect the fix text names; nil means
	// backend.Default().
	Backend backend.Backend
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{ContextDepth: 2}
}

// Facts is the subset of shared analysis facts the oracle consumes from
// the unit's facts snapshot (internal/analysis): the engine's unit facts
// plus the symbolic buffer-length analyzer.
type Facts interface {
	UnitFacts
	BufLenAnalyzer() *buflen.Analyzer
}

// Analyzer runs the static overflow oracle over one translation unit. It
// is not safe for concurrent use.
type Analyzer struct {
	unit  *cast.TranslationUnit
	opts  Options
	facts Facts

	eng       *Engine[Env[varState], varState, *funcProblem]
	buf       *buflen.Analyzer
	globals   map[int]varState
	globalIDs map[int]bool
}

// New creates an analyzer on the unit's shared facts.
func New(unit *cast.TranslationUnit, opts Options, facts Facts) *Analyzer {
	opts.Backend = cmp.Or(opts.Backend, backend.Default())
	return &Analyzer{unit: unit, opts: opts, facts: facts}
}

func (a *Analyzer) ensure() {
	if a.eng != nil {
		return
	}
	o := Oracle[Env[varState], varState, *funcProblem]{
		Name:         "overflow",
		Solve:        "interval",
		Unverified:   "interval analysis budget exhausted; memory accesses in this function are unverified",
		ContextDepth: a.opts.ContextDepth,
		Limits:       a.opts.Limits,
		Memo:         a.opts.Memo,
		Solves:       &solves,
		Problem:      a.problem,
		Check:        a.check,
		ArgSeed:      a.argSeed,
		SeedValue:    seedValue,
	}
	if o.Memo != nil {
		o.OptsSig = fmt.Sprintf("%d|%s", a.opts.ContextDepth, a.opts.Backend.Name())
		if fp := SeedFingerprint(a.opts.ExternSeeds); fp != "" {
			o.OptsSig += "|xtu=" + fp
		}
	}
	a.eng = NewEngine(a.unit, a.facts, o)
	a.buf = a.facts.BufLenAnalyzer()
	a.globals = make(map[int]varState)
	a.globalIDs = make(map[int]bool)
	for _, sym := range a.unit.Symbols {
		if sym == nil || sym.Kind != cast.SymVar || !sym.IsGlobal {
			continue
		}
		a.globalIDs[sym.ID] = true
		if !ctype.IsArray(sym.Type) {
			continue
		}
		vs := topVar()
		if sz := sym.Type.Size(); sz >= 0 {
			vs.size = interval.Const(int64(sz))
		}
		vs.off = interval.Const(0)
		vs.reg = regStack
		a.globals[sym.ID] = vs
	}
}

func (a *Analyzer) problem(fn *cast.FuncDef, seed map[int]varState) *funcProblem {
	return &funcProblem{fn: fn, seed: seed, globals: a.globals, globalIDs: a.globalIDs}
}

func seedValue(vs varState) string {
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%d,%d",
		vs.size.Lo, vs.size.Hi, vs.off.Lo, vs.off.Hi,
		vs.strl.Lo, vs.strl.Hi, vs.val.Lo, vs.val.Hi, vs.reg)
}

// Analyze runs the oracle — the engine's passes 1 and 2 plus pass 3,
// the externally seeded contexts — and returns the deduplicated findings
// in source order.
func (a *Analyzer) Analyze() []Finding {
	a.ensure()
	return a.eng.Analyze(a.seedFindings)
}

// Degradations describes every budget cut the oracle took, for the
// pipeline's Report.Degraded log.
func (a *Analyzer) Degradations() []string {
	if a.eng == nil {
		return nil
	}
	return a.eng.Degradations()
}

// argSeed evaluates the call's arguments under the caller's state at the
// call site and binds the resulting intervals to the callee's parameters.
func (a *Analyzer) argSeed(_ *funcProblem, st Env[varState], e callgraph.Edge) map[int]varState {
	seed := make(map[int]varState)
	for i, p := range e.Callee.Params {
		if p.Sym == nil || i >= len(e.Call.Args) {
			break
		}
		arg := e.Call.Args[i]
		switch {
		case isPtrVar(p.Sym):
			if vs, ok := evalPtr(st, arg); ok && !vs.IsTop() {
				seed[p.Sym.ID] = vs
			}
		case IsIntVar(p.Sym):
			if iv := evalInt(st, arg); !iv.IsTop() {
				vs := topVar()
				vs.val = iv
				seed[p.Sym.ID] = vs
			}
		}
	}
	return seed
}

// --- per-function checking --------------------------------------------------

type checker struct {
	a *Analyzer
	Collector
}

// fix is the lint fix text for an access at a call to callee ("" for
// an access outside a call) under the analyzer's repair dialect: the
// dialect's replacement when it has a rule for the function (or for the
// unsafe function the catalog says it is like), a clamp for any other
// library writer, and STR's bounds check otherwise.
func (c *checker) fix(callee string) string {
	f, isLib := backend.Library(callee)
	if !isLib || len(f.Writes) == 0 {
		return "guard the access with a bounds check (STR)"
	}
	if r, ok := c.a.opts.Backend.Lookup(cmp.Or(f.Like, callee)); ok && r.Kind != backend.KindClamp {
		return "replace " + callee + " with " + r.Safe + " (SLR)"
	}
	return "replace " + callee + " with a size-clamped " + callee + " (SLR)"
}

// check reaches the expressions of every node through Transfer's
// dispatch and checks each memory access against the node's in-state.
// Like Transfer it skips a node whose in-state is unreached, including
// a branch its condition rules out.
func (a *Analyzer) check(fn *cast.FuncDef, g *cfg.Graph, sol *dataflow.Solution[Env[varState]], _ *funcProblem, chain []string) []Finding {
	c := &checker{a: a, Collector: Collector{File: a.unit.File, Fn: fn, Chain: chain}}
	decl := func(st Env[varState], d *cast.VarDecl) Env[varState] {
		if d != nil {
			c.expr(st, d.Init)
		}
		return st
	}
	expr := func(st Env[varState], e cast.Expr) Env[varState] {
		c.expr(st, e)
		return st
	}
	for _, n := range g.Nodes {
		Transfer(n, sol.In[n.ID], decl, expr)
	}
	return c.Out
}

// expr walks one expression tree, checking every memory access against the
// in-state of its program point.
func (c *checker) expr(st Env[varState], e cast.Expr) {
	if e == nil {
		return
	}
	switch x := cast.Unparen(e).(type) {
	case *cast.AssignExpr:
		switch l := cast.Unparen(x.LHS).(type) {
		case *cast.IndexExpr:
			c.checkIndex(st, l, true)
			c.expr(st, l.Base)
			c.expr(st, l.Index)
		case *cast.UnaryExpr:
			if l.Op == cast.UnaryDeref {
				c.checkDeref(st, l, true)
				c.expr(st, l.Operand)
			} else {
				c.expr(st, x.LHS)
			}
		default:
			c.expr(st, x.LHS)
		}
		c.expr(st, x.RHS)
	case *cast.IndexExpr:
		c.checkIndex(st, x, false)
		c.expr(st, x.Base)
		c.expr(st, x.Index)
	case *cast.UnaryExpr:
		switch x.Op {
		case cast.UnaryDeref:
			c.checkDeref(st, x, false)
			c.expr(st, x.Operand)
		case cast.UnaryAddrOf:
			// &a[i] computes an address without touching memory; check only
			// the subexpressions of the address computation.
			if inner, ok := cast.Unparen(x.Operand).(*cast.IndexExpr); ok {
				c.expr(st, inner.Base)
				c.expr(st, inner.Index)
			} else {
				c.expr(st, x.Operand)
			}
		default:
			c.expr(st, x.Operand)
		}
	case *cast.PostfixExpr:
		c.expr(st, x.Operand)
	case *cast.BinaryExpr:
		c.expr(st, x.X)
		c.expr(st, x.Y)
	case *cast.CondExpr:
		c.expr(st, x.Cond)
		c.expr(st, x.Then)
		c.expr(st, x.Else)
	case *cast.CastExpr:
		c.expr(st, x.Operand)
	case *cast.CommaExpr:
		c.expr(st, x.X)
		c.expr(st, x.Y)
	case *cast.CallExpr:
		c.checkCall(st, x)
		for _, arg := range x.Args {
			c.expr(st, arg)
		}
	case *cast.MemberExpr:
		c.expr(st, x.Base)
	case *cast.InitListExpr:
		for _, el := range x.Elems {
			c.expr(st, el)
		}
	case *cast.SizeofExpr:
		// sizeof does not evaluate its operand.
	}
}

func (c *checker) checkIndex(st Env[varState], x *cast.IndexExpr, write bool) {
	if t := x.Type(); t != nil && ctype.IsArray(t) {
		return // row selection of a multi-dimensional array, not an access
	}
	sym, extra, ok := resolveVar(st, x.Base)
	if !ok {
		return
	}
	vs := st.Get(sym.ID)
	scale := elemSize(ctype.Decay(typeOf(cast.Unparen(x.Base))))
	start := vs.off.Add(extra).Add(evalInt(st, x.Index).MulConst(scale))
	c.report(st, x, x.Base, vs, start, start.AddConst(scale), write, false, c.fix(""))
}

func (c *checker) checkDeref(st Env[varState], x *cast.UnaryExpr, write bool) {
	sym, extra, ok := resolveVar(st, x.Operand)
	if !ok {
		return
	}
	vs := st.Get(sym.ID)
	scale := elemSize(ctype.Decay(typeOf(cast.Unparen(x.Operand))))
	start := vs.off.Add(extra)
	c.report(st, x, x.Operand, vs, start, start.AddConst(scale), write, false, c.fix(""))
}

// checkCall models the write (and for memcpy, read) extents of unsafe
// library routines.
func (c *checker) checkCall(st Env[varState], call *cast.CallExpr) {
	name := call.Callee()
	switch name {
	case "gets":
		f := Finding{
			CWE:          242,
			Severity:     SevDefinite,
			Msg:          "gets cannot bound its write",
			SuggestedFix: c.fix("gets"),
		}
		if sym, _, ok := resolveVar(st, call.Arg(0)); ok && sym != nil {
			f.Object = sym.Name
		}
		c.Add(f, call)
		return
	case "strcpy", "stpcpy":
		if vs, base, ok := ptrArg(st, call.Arg(0)); ok {
			end := base.Add(strlenOf(st, call.Arg(1))).AddConst(1)
			c.report(st, call, call.Arg(0), vs, base, end, true, true, c.fix(name))
		}
	case "strcat", "strncat":
		if vs, _, ok := ptrArg(st, call.Arg(0)); ok {
			add := strlenOf(st, call.Arg(1))
			if name == "strncat" {
				n := evalInt(st, call.Arg(2))
				if n.Hi < interval.PosInf && (add.Hi >= interval.PosInf || add.Hi > n.Hi) {
					add = interval.Interval{Lo: max(0, min(add.Lo, n.Lo)), Hi: n.Hi}
				}
			}
			end := vs.strl.Add(add).AddConst(1)
			c.report(st, call, call.Arg(0), vs, vs.strl, end, true, true, c.fix(name))
		}
	case "sprintf":
		if vs, base, ok := ptrArg(st, call.Arg(0)); ok {
			end := base.Add(formatLength(st, call.Arg(1), call.Args, 2)).AddConst(1)
			c.report(st, call, call.Arg(0), vs, base, end, true, true, c.fix(name))
		}
	case "vsprintf":
		if vs, base, ok := ptrArg(st, call.Arg(0)); ok {
			end := interval.Range(base.Lo, interval.PosInf)
			c.report(st, call, call.Arg(0), vs, base, end, true, true, c.fix(name))
		}
	case "strncpy", "memset":
		if vs, base, ok := ptrArg(st, call.Arg(0)); ok {
			end := base.Add(evalInt(st, call.Arg(2)).ClampMin(0))
			c.report(st, call, call.Arg(0), vs, base, end, true, true, c.fix(name))
		}
	case "snprintf", "fgets":
		if vs, base, ok := ptrArg(st, call.Arg(0)); ok {
			end := base.Add(evalInt(st, call.Arg(1)).ClampMin(0))
			c.report(st, call, call.Arg(0), vs, base, end, true, true, c.fix(name))
		}
	case "memcpy", "memmove":
		n := evalInt(st, call.Arg(2)).ClampMin(0)
		if vs, base, ok := ptrArg(st, call.Arg(0)); ok {
			c.report(st, call, call.Arg(0), vs, base, base.Add(n), true, true, c.fix(name))
		}
		if vs, base, ok := ptrArg(st, call.Arg(1)); ok {
			c.report(st, call, call.Arg(1), vs, base, base.Add(n), false, true, c.fix(name))
		}
	}
}

// ptrArg resolves a pointer argument to its variable state and absolute
// base offset.
func ptrArg(st Env[varState], e cast.Expr) (varState, interval.Interval, bool) {
	sym, extra, ok := resolveVar(st, e)
	if !ok {
		return varState{}, interval.Interval{}, false
	}
	vs := st.Get(sym.ID)
	return vs, vs.off.Add(extra), true
}

// report classifies an access of bytes [start, end) against the object's
// size interval and records a finding when it can violate bounds.
func (c *checker) report(st Env[varState], site cast.Expr, base cast.Expr, vs varState, start, end interval.Interval, write, viaLib bool, fix string) {
	sz, reg := vs.size, vs.reg
	if sz.Hi >= interval.PosInf && base != nil {
		if bsz, fail := c.a.buf.BufferLength(c.Fn, base); fail == nil {
			if n, known := bsz.KnownBytes(); known {
				sz = interval.Const(n)
			}
			if bsz.Kind == buflen.SizeHeap {
				reg = regHeap
			}
		}
	}
	sev, under, ok := classify(start, end, sz, viaLib)
	if !ok {
		return
	}
	var cwe int
	var msg string
	switch {
	case under && write:
		cwe = 124
		msg = fmt.Sprintf("write starts at byte %s, before the object", start)
	case under:
		cwe = 127
		msg = fmt.Sprintf("read starts at byte %s, before the object", start)
	case write:
		cwe = 121
		if reg == regHeap {
			cwe = 122
		}
		msg = fmt.Sprintf("write of bytes [%d,%s) exceeds object size %s",
			max(start.Lo, 0), boundStr(end.Hi), sz)
	default:
		cwe = 126
		msg = fmt.Sprintf("read of bytes [%d,%s) exceeds object size %s",
			max(start.Lo, 0), boundStr(end.Hi), sz)
	}
	f := Finding{CWE: cwe, Severity: sev, Msg: msg, SuggestedFix: fix}
	if sym, _, ok := resolveVar(st, base); ok && sym != nil {
		f.Object = sym.Name
	}
	c.Add(f, site)
}

func boundStr(n int64) string {
	if n >= interval.PosInf {
		return "+inf"
	}
	return fmt.Sprintf("%d", n)
}

// classify applies the severity rules:
//
//	definite — the access provably leaves the object for every size the
//	  object can have (min access start past max size, or max write end
//	  past max size per the lint contract), or lands before it;
//	possible — the access and the out-of-bounds region merely overlap.
//
// Accesses with unbounded start offsets, and accesses to objects of
// unknown size, are skipped: with top intervals every access would be
// flagged, drowning real findings.
func classify(start, end, sz interval.Interval, viaLib bool) (Severity, bool, bool) {
	if start.Lo <= interval.NegInf {
		return 0, false, false
	}
	if start.Hi < 0 {
		return SevDefinite, true, true
	}
	if start.Lo < 0 {
		return SevPossible, true, true
	}
	if sz.Hi >= interval.PosInf || sz.Lo <= interval.NegInf {
		return 0, false, false
	}
	switch {
	case end.Lo > sz.Hi:
		return SevDefinite, false, true
	case end.Hi >= interval.PosInf:
		// Unbounded writes through unsafe library calls (strcpy of an
		// unknown string) are the paper's canonical "possible" overflows;
		// unbounded raw index accesses are almost always widening noise.
		if viaLib {
			return SevPossible, false, true
		}
		return 0, false, false
	case end.Hi > sz.Hi:
		return SevDefinite, false, true
	case end.Hi > sz.Lo:
		return SevPossible, false, true
	}
	return 0, false, false
}
