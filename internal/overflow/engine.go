package overflow

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/callgraph"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/ctoken"
	"repro/internal/dataflow"
	"repro/internal/fault"
)

// UnitFacts is the slice of shared analysis facts the engine consumes
// from the unit's facts snapshot (internal/analysis): the unit call
// graph, per-function CFGs, and the per-function dependency hashes that
// key the cross-run memo (nil hashes leave the memo unarmed).
type UnitFacts interface {
	CallGraph() *callgraph.Graph
	CFG(fn *cast.FuncDef) *cfg.Graph
	FuncHashes() map[string]string
}

// Oracle is one client of the interprocedural engine: its names, its
// budgets and memo, and the four things only it knows — the per-seed
// dataflow problem over its state S, the checker over a solved
// context, how a call binds argument values V to callee parameters,
// and how one seed value renders into solve and memo keys.
type Oracle[S, V any, P dataflow.Problem[S]] struct {
	// Name prefixes degradation notes and namespaces memo keys
	// ("overflow"); Solve names the per-function solve in notes
	// ("interval"); Unverified is the message of a degraded finding.
	Name, Solve, Unverified string
	// ContextDepth, Limits and Memo are the oracle's options of the
	// same names; OptsSig renders the options that change findings into
	// memo keys.
	ContextDepth int
	Limits       fault.Limits
	Memo         *Memo
	OptsSig      string
	// Solves counts the oracle's per-function fixpoint solves.
	Solves *atomic.Int64

	// Problem builds fn's dataflow problem under a parameter seed (nil
	// in pass 1).
	Problem func(fn *cast.FuncDef, seed map[int]V) P
	// Check reports the findings of one solved context; chain is nil in
	// pass 1 and the call chain from a root in pass 2.
	Check func(fn *cast.FuncDef, g *cfg.Graph, sol *dataflow.Solution[S], p P, chain []string) []Finding
	// ArgSeed binds a call's argument values, evaluated under the
	// caller's state st at the call, to the callee's parameters.
	ArgSeed func(p P, st S, e callgraph.Edge) map[int]V
	// SeedValue renders one seed value deterministically for the solve
	// and memo keys.
	SeedValue func(V) string
}

// Engine is the interprocedural driver both lint oracles run on
// (DESIGN.md Section 7): pass 1 checks every function under an empty
// seed, pass 2 propagates argument values from the call-graph roots up
// to ContextDepth call edges deep, each (function, seed) pair is solved
// once per run, and both passes go through the cross-run memo when it
// is armed. Exhausted budgets degrade instead of passing silently. An
// Engine is not safe for concurrent use.
type Engine[S, V any, P dataflow.Problem[S]] struct {
	unit  *cast.TranslationUnit
	facts UnitFacts
	o     Oracle[S, V, P]

	cg     *callgraph.Graph
	solved map[string]*solved[S, P]

	// Cross-run memoization (incremental sessions).
	hashes  map[string]string
	useMemo bool

	// Fault-containment bookkeeping (DESIGN.md Section 9).
	degradedFns  map[string]bool // functions whose solve was cut short
	ctxSpent     int             // interprocedural contexts explored so far
	interprocCut bool            // the context budget stopped propagation
}

// solved is one (function, seed) fixpoint.
type solved[S any, P any] struct {
	g   *cfg.Graph
	sol *dataflow.Solution[S]
	p   P
}

// NewEngine wires an oracle to a unit. The memo arms only for
// unbudgeted runs whose facts provider exposes dependency hashes:
// budget degradation depends on visit order, which a memo hit would
// skip. A unit that defines one name twice has one hash for both
// definitions, which cannot key their findings apart, so it runs
// unmemoized.
func NewEngine[S, V any, P dataflow.Problem[S]](unit *cast.TranslationUnit, facts UnitFacts, o Oracle[S, V, P]) *Engine[S, V, P] {
	e := &Engine[S, V, P]{
		unit:        unit,
		facts:       facts,
		o:           o,
		cg:          facts.CallGraph(),
		solved:      make(map[string]*solved[S, P]),
		degradedFns: make(map[string]bool),
	}
	if o.Memo != nil && o.Limits.Steps == 0 && o.Limits.Contexts == 0 {
		e.hashes = facts.FuncHashes()
		e.useMemo = e.hashes != nil && len(e.hashes) == len(unit.Funcs)
		if e.useMemo {
			o.Memo.BeginRun()
		}
	}
	return e
}

// solve runs (or recalls) the analysis of fn under the given parameter
// seed.
func (e *Engine[S, V, P]) solve(fn *cast.FuncDef, seed map[int]V) (*cfg.Graph, *dataflow.Solution[S], P) {
	key := fn.Name + "|" + e.seedKey(seed)
	if s, ok := e.solved[key]; ok {
		return s.g, s.sol, s.p
	}
	g := e.facts.CFG(fn)
	e.o.Solves.Add(1)
	p := e.o.Problem(fn, seed)
	sol := dataflow.SolveForwardLimits[S](g, p, e.o.Limits)
	if sol.Degraded {
		e.degradedFns[fn.Name] = true
	}
	e.solved[key] = &solved[S, P]{g: g, sol: sol, p: p}
	return g, sol, p
}

// seedKey renders a seed by symbol ID: unique within one parse, which is
// all the per-run solve memo needs.
func (e *Engine[S, V, P]) seedKey(seed map[int]V) string {
	if len(seed) == 0 {
		return ""
	}
	ids := make([]int, 0, len(seed))
	for id := range seed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d:%s;", id, e.o.SeedValue(seed[id]))
	}
	return sb.String()
}

// Analyze runs pass 1 and pass 2, appends extra's findings (nil for
// none), and returns the deduplicated findings in source order.
// Budget-degraded functions contribute a SevPossible CWEIncomplete
// finding each, so an exhausted budget can never read as a clean file.
func (e *Engine[S, V, P]) Analyze(extra func() []Finding) []Finding {
	var all []Finding
	// Pass 1: every function with unknown parameters. Unknown values
	// keep the checkers quiet exactly where only a caller could make a
	// finding concrete.
	for _, fn := range e.unit.Funcs {
		fault.CheckCtx(e.o.Limits.Ctx)
		var key string
		if e.useMemo {
			if h, ok := e.hashes[fn.Name]; ok {
				key = pass1Key(e.o.Name, e.o.OptsSig, fn.Name, h)
				if fs, ok := e.o.Memo.Load(key, e.unit.File); ok {
					all = append(all, fs...)
					continue
				}
			}
		}
		g, sol, p := e.solve(fn, nil)
		fs := e.o.Check(fn, g, sol, p, nil)
		if key != "" {
			e.o.Memo.Store(key, fs)
		}
		all = append(all, fs...)
	}
	// Pass 2: propagate argument values from the call-graph roots.
	if e.o.ContextDepth > 0 {
		for _, root := range e.cg.Roots() {
			all = append(all, e.propagate(root, nil, []string{root.Name}, e.o.ContextDepth)...)
		}
	}
	if extra != nil {
		all = append(all, extra()...)
	}
	// Unit.Funcs order keeps degraded findings deterministic.
	for _, fn := range e.unit.Funcs {
		if e.degradedFns[fn.Name] {
			all = append(all, e.degradedFinding(fn))
		}
	}
	return dedup(all)
}

// propagate checks fn under seed in the context chain and recurses into
// its callees up to depth more call edges, returning every finding the
// subtree derives.
func (e *Engine[S, V, P]) propagate(fn *cast.FuncDef, seed map[int]V, chain []string, depth int) []Finding {
	fault.CheckCtx(e.o.Limits.Ctx)
	if max := e.o.Limits.Contexts; max > 0 && e.ctxSpent >= max {
		e.interprocCut = true
		return nil
	}
	// A subtree hit replays this context and everything the recursion
	// below it would derive — fn's dependency hash covers its transitive
	// callees, so a hit proves none of them changed either.
	key := e.subtreeKey(fn, seed, chain, depth)
	if key != "" {
		if out, ok := e.o.Memo.Load(key, e.unit.File); ok {
			return out
		}
	}
	e.ctxSpent++
	g, sol, p := e.solve(fn, seed)
	var out []Finding
	if len(chain) > 1 {
		// Pass 1 already checked the empty-seed root context.
		out = e.o.Check(fn, g, sol, p, chain)
	}
	if depth > 0 {
		for _, edge := range e.cg.CallsFrom(fn.Name) {
			if edge.Callee == nil || slices.Contains(chain, edge.CalleeName) {
				continue
			}
			n := g.NodeContaining(edge.Call)
			if n == nil || !sol.Reached[n.ID] {
				continue
			}
			next := e.o.ArgSeed(p, sol.In[n.ID], edge)
			sub := append(append([]string(nil), chain...), edge.CalleeName)
			out = append(out, e.propagate(edge.Callee, next, sub, depth-1)...)
		}
	}
	if key != "" {
		e.o.Memo.Store(key, out)
	}
	return out
}

// subtreeKey builds the cross-run memo key for one propagation subtree,
// or "" when the context is not memoizable (memo off, no hash for fn, or
// a seed on something other than fn's parameters).
func (e *Engine[S, V, P]) subtreeKey(fn *cast.FuncDef, seed map[int]V, chain []string, depth int) string {
	if !e.useMemo {
		return ""
	}
	h, ok := e.hashes[fn.Name]
	if !ok {
		return ""
	}
	return pass2Key(e.o.Name, e.o.OptsSig, h, chain, e.stableSeed(fn, seed), depth)
}

// stableSeed renders a parameter seed by parameter position so the
// serialization survives re-parses (symbol IDs do not).
func (e *Engine[S, V, P]) stableSeed(fn *cast.FuncDef, seed map[int]V) string {
	if len(seed) == 0 {
		return ""
	}
	paramIndex := make(map[int]int, len(fn.Params))
	for i, p := range fn.Params {
		if p.Sym != nil {
			paramIndex[p.Sym.ID] = i
		}
	}
	values := make(map[int]string, len(seed))
	for id, v := range seed {
		values[id] = e.o.SeedValue(v)
	}
	return stableSeedKey(paramIndex, values)
}

// degradedFinding is the never-silent marker for a function whose solve
// was cut short by the step budget.
func (e *Engine[S, V, P]) degradedFinding(fn *cast.FuncDef) Finding {
	f := Finding{
		CWE:          CWEIncomplete,
		Severity:     SevPossible,
		Function:     fn.Name,
		Degraded:     true,
		Msg:          e.o.Unverified,
		SuggestedFix: "raise the solver step budget or audit the function manually",
		Extent:       fn.Extent(),
	}
	if e.unit.File != nil {
		f.Pos = e.unit.File.Position(f.Extent.Pos)
	}
	return f
}

// Degradations describes every budget cut the oracle took, for the
// pipeline's Report.Degraded log.
func (e *Engine[S, V, P]) Degradations() []string {
	var out []string
	for _, fn := range e.unit.Funcs {
		if e.degradedFns[fn.Name] {
			out = append(out, fmt.Sprintf("%s: %s solve budget exhausted in %s", e.o.Name, e.o.Solve, fn.Name))
		}
	}
	if e.interprocCut {
		out = append(out, fmt.Sprintf(
			"%s: interprocedural context budget exhausted after %d contexts", e.o.Name, e.ctxSpent))
	}
	return out
}

// Collector gathers one checked context's findings, stamping each with
// its function, extent, position and call chain.
type Collector struct {
	File  *ctoken.File
	Fn    *cast.FuncDef
	Chain []string
	Out   []Finding
}

// Add records f at site.
func (c *Collector) Add(f Finding, site cast.Expr) {
	f.Function = c.Fn.Name
	f.Extent = site.Extent()
	if c.File != nil {
		f.Pos = c.File.Position(f.Extent.Pos)
	}
	if len(c.Chain) > 1 {
		f.Contexts = []string{strings.Join(c.Chain, " -> ")}
	}
	c.Out = append(c.Out, f)
}

// dedup merges findings that name the same extent and CWE, keeping the
// maximum severity, the first non-empty guard, and the union of
// contexts, sorted by position then CWE.
func dedup(all []Finding) []Finding {
	type key struct {
		pos, end ctoken.Pos
		cwe      int
	}
	idx := make(map[key]int)
	var out []Finding
	for _, f := range all {
		k := key{f.Extent.Pos, f.Extent.End, f.CWE}
		if i, ok := idx[k]; ok {
			if f.Severity > out[i].Severity {
				out[i].Severity = f.Severity
				out[i].Msg = f.Msg
			}
			if out[i].Guard == "" {
				out[i].Guard = f.Guard
			}
			for _, ctx := range f.Contexts {
				if !slices.Contains(out[i].Contexts, ctx) {
					out[i].Contexts = append(out[i].Contexts, ctx)
				}
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Extent.Pos != out[j].Extent.Pos {
			return out[i].Extent.Pos < out[j].Extent.Pos
		}
		return out[i].CWE < out[j].CWE
	})
	return out
}
