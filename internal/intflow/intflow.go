// Package intflow is the integer-overflow oracle: a second static-
// analysis client on the shared interval facts. It runs an
// interprocedural value-range analysis over the same generic dataflow
// solver the buffer oracle uses, tracking signed/unsigned integer
// ranges and wraparound potential through arithmetic, casts, and
// truncating assignments, and classifies findings as
//
//	CWE-190 — integer wraparound past the top of the type,
//	CWE-191 — underflow below the bottom of the type,
//	CWE-680 — a possibly-wrapped value reaching an allocation-size
//	          sink (malloc/calloc/realloc/g_malloc or a wrapper
//	          discovered through the call graph).
//
// For CWE-680 sites the oracle additionally renders an IntRepair-style
// precondition guard (`if (a > MAX / b) ...`) as a *suggested*, never
// applied, repair annotation (Finding.Guard).
package intflow

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/callgraph"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/interproc"
	"repro/internal/overflow"
)

// Options configures the oracle.
type Options struct {
	// ContextDepth bounds how many call edges argument ranges are
	// propagated along from each call-graph root. 0 disables the
	// interprocedural pass.
	ContextDepth int
	// Limits bounds the oracle the same way the buffer oracle is
	// bounded: the context is polled at solver iterations and between
	// interprocedural contexts; Limits.Steps budgets each per-function
	// solve and Limits.Contexts the interprocedural pass. Exhausted
	// budgets degrade — affected functions get a SevPossible
	// CWEIncomplete finding instead of silently passing.
	Limits fault.Limits
	// Memo, when non-nil, retains findings across runs for incremental
	// sessions. The type is shared with the buffer oracle (Finding is an
	// alias) but each oracle keeps its own instance; keys are namespaced
	// by oracle name regardless. Arming conditions mirror
	// overflow.Options.Memo: unbudgeted runs with a facts provider that
	// exposes FuncHashes.
	Memo *overflow.Memo
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{ContextDepth: 2}
}

// Facts is the subset of shared analysis facts the oracle consumes from
// the unit's analysis snapshot: the engine's unit facts plus the
// may-modify summaries.
type Facts interface {
	overflow.UnitFacts
	MayModify() *interproc.Result
}

// Analyzer runs the integer-overflow oracle over one translation unit.
// It is not safe for concurrent use.
type Analyzer struct {
	unit  *cast.TranslationUnit
	opts  Options
	facts Facts

	eng       *overflow.Engine[overflow.Env[ival], ival, *iproblem]
	mm        *interproc.Result
	globalIDs map[int]bool
	sinks     map[string][]int
}

// New creates an analyzer on the unit's shared facts.
func New(unit *cast.TranslationUnit, opts Options, facts Facts) *Analyzer {
	return &Analyzer{unit: unit, opts: opts, facts: facts}
}

func (a *Analyzer) ensure() {
	if a.eng != nil {
		return
	}
	a.eng = overflow.NewEngine(a.unit, a.facts, overflow.Oracle[overflow.Env[ival], ival, *iproblem]{
		Name:         "intflow",
		Solve:        "range",
		Unverified:   "integer range analysis budget exhausted; arithmetic in this function is unverified",
		ContextDepth: a.opts.ContextDepth,
		Limits:       a.opts.Limits,
		Memo:         a.opts.Memo,
		OptsSig:      fmt.Sprintf("%d", a.opts.ContextDepth),
		Solves:       &solves,
		Problem:      a.problem,
		Check:        a.check,
		ArgSeed:      a.argSeed,
		SeedValue:    seedValue,
	})
	a.mm = a.facts.MayModify()
	a.globalIDs = make(map[int]bool)
	for _, sym := range a.unit.Symbols {
		if sym != nil && sym.Kind == cast.SymVar && sym.IsGlobal && overflow.IsIntVar(sym) {
			a.globalIDs[sym.ID] = true
		}
	}
	a.discoverSinks()
}

// solves counts range fixpoint solves package-wide; incremental
// equivalence tests read it to prove untouched functions were not
// re-derived. See overflow.Solves.
var solves atomic.Int64

// Solves returns the number of per-function fixpoint solves this package
// has run since process start.
func Solves() int64 { return solves.Load() }

func (a *Analyzer) problem(fn *cast.FuncDef, seed map[int]ival) *iproblem {
	return &iproblem{fn: fn, seed: seed, globalIDs: a.globalIDs, sinks: a.sinks, mm: a.mm}
}

// seedValue renders one parameter value for the engine's keys. The guard
// is part of it: two seeds that differ only in their rendered
// precondition must not share a solution, or the guard that surfaces at
// a sink would depend on context visit order — and incremental
// re-analysis (which skips some contexts via the cross-run memo) would
// then disagree with a fresh run.
func seedValue(v ival) string {
	return fmt.Sprintf("%d,%d,%t,%t,%s", v.v.Lo, v.v.Hi, v.wrapped, v.definite, v.guard)
}

// discoverSinks seeds the allocation-size sinks with the catalog's
// allocators (internal/backend) and then closes them over the call
// graph: a function that forwards one of its integer parameters into a
// known sink's size argument is itself a sink at that parameter
// position. This is how
// `static char *wrapper(unsigned n) { return malloc(n); }` makes
// `wrapper(a * b)` a CWE-680 site. Each round reads the call graph's
// edges, never a body.
func (a *Analyzer) discoverSinks() {
	a.sinks = backend.AllocSizes()
	paramIdx := make(map[int]int) // Symbol.ID of an integer parameter -> its position
	for _, fn := range a.unit.Funcs {
		for i, p := range fn.Params {
			if p.Sym != nil && overflow.IsIntVar(p.Sym) {
				paramIdx[p.Sym.ID] = i
			}
		}
	}
	edges := a.facts.CallGraph().Edges()
	// Each round that changes something adds a (function, position)
	// pair, so the least fixpoint is reached in finitely many rounds.
	for changed := len(paramIdx) > 0; changed; {
		changed = false
		for _, e := range edges {
			for _, pos := range a.sinks[e.CalleeName] {
				arg := e.Call.Arg(pos)
				if arg == nil {
					continue
				}
				cast.InspectExprs(arg, func(x cast.Expr) bool {
					if id, ok := x.(*cast.Ident); ok && id.Sym != nil {
						if i, ok := paramIdx[id.Sym.ID]; ok && !slices.Contains(a.sinks[e.Caller.Name], i) {
							a.sinks[e.Caller.Name] = append(a.sinks[e.Caller.Name], i)
							changed = true
						}
					}
					return true
				})
			}
		}
	}
	for _, positions := range a.sinks {
		sort.Ints(positions)
	}
}

// Analyze runs the oracle and returns the deduplicated findings in
// source order. Budget-degraded functions contribute a SevPossible
// CWEIncomplete finding each, so an exhausted budget can never read as
// a clean file.
func (a *Analyzer) Analyze() []Finding {
	a.ensure()
	return a.eng.Analyze(nil)
}

// check replays the solved transfer functions over every node with a
// checker attached, so findings come from exactly the arithmetic the
// fixpoint evaluated; Transfer passes over an unreached in-state.
func (a *Analyzer) check(fn *cast.FuncDef, g *cfg.Graph, sol *dataflow.Solution[overflow.Env[ival]], p *iproblem, chain []string) []Finding {
	chk := &ichecker{overflow.Collector{File: a.unit.File, Fn: fn, Chain: chain}}
	rp := *p
	rp.chk = chk
	for _, n := range g.Nodes {
		rp.Transfer(n, sol.In[n.ID])
	}
	return chk.Out
}

// argSeed evaluates the call's arguments under the caller's state at
// the call site and binds the resulting values — including wrap taint —
// to the callee's integer parameters.
func (a *Analyzer) argSeed(p *iproblem, st overflow.Env[ival], e callgraph.Edge) map[int]ival {
	seed := make(map[int]ival)
	for i, prm := range e.Callee.Params {
		if prm.Sym == nil || i >= len(e.Call.Args) {
			break
		}
		if !overflow.IsIntVar(prm.Sym) {
			continue
		}
		v := p.convert(e.Call.Args[i], p.eval(st, e.Call.Args[i]), prm.Sym.Type)
		if !v.IsTop() {
			seed[prm.Sym.ID] = v
		}
	}
	return seed
}

// Degradations describes every budget cut the oracle took, for the
// pipeline's Report.Degraded log.
func (a *Analyzer) Degradations() []string {
	if a.eng == nil {
		return nil
	}
	return a.eng.Degradations()
}

// CWEIncomplete re-exports the degraded-finding marker for clients that
// only import intflow.
const CWEIncomplete = overflow.CWEIncomplete
