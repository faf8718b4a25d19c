// Package analysis provides the shared analysis-facts layer every client
// of the pipeline sits on — the reproduction of OpenRefactory/C's single
// analysis substrate (DESIGN §1): type analysis, control-flow graphs,
// reaching definitions, points-to and alias sets, the call graph, the
// interprocedural may-modify facts, and the static overflow oracle's
// findings.
//
// A Snapshot is built once per parsed translation unit. Every fact is
// computed lazily on first request, memoized, and safe for concurrent
// access. It is the only source of these facts: SLR, STR, both oracles
// and the composition root all consume one snapshot, and no client
// derives a private copy from a bare *cast.TranslationUnit. The package also hosts the bounded worker
// pool (pool.go) behind the batch pipeline (core.FixAll, cfix -j).
package analysis

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/buflen"
	"repro/internal/callgraph"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/interproc"
	"repro/internal/intflow"
	"repro/internal/obs"
	"repro/internal/overflow"
	"repro/internal/pointsto"
	"repro/internal/typecheck"
)

// Config selects non-default analysis configurations for a snapshot.
type Config struct {
	// PointsTo configures the points-to solver; the zero value is the
	// paper's aggregate model.
	PointsTo pointsto.Options
	// Overflow configures the static overflow oracle; nil means
	// overflow.DefaultOptions().
	Overflow *overflow.Options
	// Intflow configures the integer-overflow oracle; nil means
	// intflow.DefaultOptions().
	Intflow *intflow.Options
	// Hashes, when non-nil, carries FuncHashes' inputs across the
	// snapshots of one edited unit (see HashMemo); nil computes them
	// from scratch. Only incremental sessions set it.
	Hashes *HashMemo
	// Limits bounds every fixpoint solve derived from this snapshot
	// (DESIGN.md Section 9): the context is polled at iteration
	// boundaries and exhausted budgets degrade the affected analysis to
	// its conservative result, recorded in Degradations. The zero value
	// imposes nothing.
	Limits fault.Limits
	// Tracer, when non-nil, receives one span per lazily computed fact
	// (DESIGN.md Section 11): parse, typecheck, cfg, reaching, pointsto,
	// aliases, callgraph, maymod, buflen, overflow — each annotated with
	// the file, solver effort, and any degradation reason. Nil disables
	// tracing at the cost of one nil check per accessor.
	Tracer *obs.Tracer
}

// Snapshot is the per-translation-unit facts store. All accessors are
// lazy, memoized, and safe for concurrent use; repeated calls return the
// same cached value.
type Snapshot struct {
	unit *cast.TranslationUnit
	conf Config
	file string

	typeOnce sync.Once
	typeErrs []error

	ptOnce sync.Once
	pt     *pointsto.Graph
	// ptCarried is set when pt shares the predecessor's solution
	// (pointsto.Reanalyze), and the alias sets are rebound.
	ptCarried bool

	aliasOnce sync.Once
	aliases   *pointsto.AliasSets

	cgOnce sync.Once
	cg     *callgraph.Graph

	interOnce sync.Once
	inter     *interproc.Result

	bufOnce sync.Once
	buf     *buflen.Analyzer

	findOnce sync.Once
	findings []overflow.Finding

	externOnce  sync.Once
	externCalls []overflow.CallSeed

	intOnce     sync.Once
	intFindings []overflow.Finding

	hashOnce   sync.Once
	funcHashes map[string]string
	// locals are FuncHashes' local hashes by index in unit.Funcs; hashed
	// is set once they are final, for a function-parse successor to
	// inherit (hashCarry).
	locals []localHash
	hashed atomic.Bool
	// carry is what a function-parse snapshot inherits from its
	// predecessor's FuncHashes; FuncHashes drops it, so a snapshot never
	// keeps its predecessor's facts past its own hashes.
	carry *hashCarry

	// walks holds each function body's walk (bodyWalk) by index in
	// unit.Funcs, filled on first use; a function-parse snapshot starts
	// with its predecessor's walks of every retained body.
	walkMu sync.Mutex
	walks  []*bodyWalk

	cfgMu sync.Mutex
	cfgs  map[*cast.FuncDef]*cfg.Graph

	rdMu sync.Mutex
	rds  map[*cast.FuncDef]*dataflow.ReachingDefs

	degMu    sync.Mutex
	degraded []string
}

// New wraps an already parsed translation unit in a snapshot with the
// default analysis configuration.
func New(unit *cast.TranslationUnit) *Snapshot {
	return NewWithConfig(unit, Config{})
}

// NewWithConfig wraps a parsed translation unit with an explicit
// configuration: oracle options and budgets, or, for the alias-precision
// ablation, a field-sensitive points-to model.
func NewWithConfig(unit *cast.TranslationUnit, conf Config) *Snapshot {
	s := &Snapshot{
		unit: unit,
		conf: conf,
		cfgs: make(map[*cast.FuncDef]*cfg.Graph, len(unit.Funcs)),
		rds:  make(map[*cast.FuncDef]*dataflow.ReachingDefs, len(unit.Funcs)),
	}
	if unit.File != nil {
		s.file = unit.File.Name()
	}
	return s
}

// span opens a stage span against the snapshot's tracer (nil-safe); the
// worker lane comes from the limits context the batch pool tagged.
func (s *Snapshot) span(name string) *obs.ActiveSpan {
	return s.conf.Tracer.Start(s.conf.Limits.Ctx, name, s.file)
}

// Parse parses one preprocessed C translation unit and wraps it in a
// snapshot — the parse-once entry point of the pipeline.
func Parse(filename, source string) (*Snapshot, error) {
	return ParseCtx(context.Background(), filename, source, Config{})
}

// ParseCtx is Parse under fault containment: ctx (stored in the
// snapshot's limits) is polled at every solver iteration derived from
// the snapshot, and conf carries the analysis budgets. ParseCtx is also
// the seam where test-only injected faults fire (see InjectFault).
func ParseCtx(ctx context.Context, filename, source string, conf Config) (*Snapshot, error) {
	if ctx != nil {
		conf.Limits.Ctx = ctx
	}
	// The span is closed by defer so a panic inside the parse (or an
	// injected test fault) still leaves a closed, attributed span behind
	// for the fault-path assertions.
	sp := conf.Tracer.Start(ctx, obs.StageParse, filename)
	defer sp.End()
	applyInjectedFault(ctx, filename, &conf)
	fault.CheckCtx(ctx)
	unit, err := cparse.Parse(filename, source)
	if err != nil {
		sp.Attr("error", err.Error())
		return nil, err
	}
	sp.Attr("funcs", fmt.Sprint(len(unit.Funcs)))
	return NewWithConfig(unit, conf), nil
}

// ParseFuncCtx is ParseCtx for an edit that lies strictly inside the
// body braces of prev's function fi, source being the unit's whole text
// after it. It re-parses only that body (cparse.ParseFunc) and builds
// the new snapshot's unit around the retained one: a new ctoken.File, a
// Symbols slice with the new body's symbols in the old ones' place and
// every later symbol renumbered to its index, and the nodes of every
// later declaration shifted by the edit's length change. Those nodes,
// and the function node the new body is spliced into, are prev's own:
// restore puts them back as prev had them, and must be called before
// prev is used again if the new snapshot is not kept.
//
// The new snapshot inherits prev's walk of every retained body (see
// bodyWalk), so its call graph, may-modify facts and alias fingerprints
// walk the edited body alone. When prev's FuncHashes has run, it also
// inherits prev's points-to graph, alias sets, local and closed hashes,
// which PointsTo, Aliases and FuncHashes reuse where they provably
// still hold (hashCarry) and FuncHashes then drops.
//
// Its error is cparse.ErrDeclined when the function path cannot tell
// what a whole parse would give; the caller then uses ParseCtx.
func ParseFuncCtx(ctx context.Context, prev *Snapshot, fi int, source string, conf Config) (snap *Snapshot, restore func(), err error) {
	if ctx != nil {
		conf.Limits.Ctx = ctx
	}
	sp := conf.Tracer.Start(ctx, obs.StageParse, prev.file)
	defer sp.End()
	applyInjectedFault(ctx, prev.file, &conf)
	fault.CheckCtx(ctx)
	old := prev.unit
	fn := old.Funcs[fi]
	d := ctoken.Pos(len(source) - old.File.Size())
	file := ctoken.NewFile(prev.file, source)
	body, syms, err := cparse.ParseFunc(old, fi, file, ctoken.Extent{Pos: fn.Body.Ext.Pos, End: fn.Body.Ext.End + d})
	if err != nil {
		sp.Attr("error", err.Error())
		return nil, nil, err
	}

	r := old.Bodies[fi]
	grow := len(syms) - (r.Hi - r.Lo)
	symbols := make([]*cast.Symbol, 0, len(old.Symbols)+grow)
	symbols = append(append(append(symbols, old.Symbols[:r.Lo]...), syms...), old.Symbols[r.Hi:]...)
	later := symbols[r.Lo+len(syms):]
	bodies := slices.Clone(old.Bodies)
	bodies[fi].Hi = r.Lo + len(syms)
	for j := fi + 1; j < len(bodies); j++ {
		bodies[j].Lo += grow
		bodies[j].Hi += grow
	}
	// The declarations after fn: Decls are in source order.
	next := sort.Search(len(old.Decls), func(i int) bool { return old.Decls[i].Extent().Pos > fn.Ext.Pos })
	laterDecls := old.Decls[next:]

	oldBody, oldExt := fn.Body, fn.Ext
	fn.Body = body
	fn.Ext.End += d
	cast.Shift(d, laterDecls, later)
	for i, sym := range later {
		sym.ID = r.Lo + len(syms) + i
	}
	restore = func() {
		fn.Body, fn.Ext = oldBody, oldExt
		cast.Shift(-d, laterDecls, later)
		for i, sym := range later {
			sym.ID = r.Hi + i
		}
	}

	unit := &cast.TranslationUnit{File: file, Decls: old.Decls, Funcs: old.Funcs,
		Symbols: symbols, Bodies: bodies, Tags: old.Tags}
	unit.SetExtent(ctoken.Extent{Pos: 0, End: ctoken.Pos(len(source))})
	sp.Attr("func", fn.Name)
	snap = NewWithConfig(unit, conf)
	snap.walks = prev.inheritWalks(fi)
	snap.carry = prev.carryFor(fi, old.Symbols[r.Lo:r.Hi])
	return snap, restore, nil
}

// noteDegraded records budget degradations for Degradations().
func (s *Snapshot) noteDegraded(notes ...string) {
	if len(notes) == 0 {
		return
	}
	s.degMu.Lock()
	s.degraded = append(s.degraded, notes...)
	s.degMu.Unlock()
}

// Degradations lists every analysis that had to degrade to its
// conservative result because a budget ran out, in the order the lazy
// accessors discovered them. Empty for unbudgeted or in-budget runs.
func (s *Snapshot) Degradations() []string {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	out := make([]string, len(s.degraded))
	copy(out, s.degraded)
	return out
}

// Unit returns the underlying translation unit.
func (s *Snapshot) Unit() *cast.TranslationUnit { return s.unit }

// Typecheck runs type analysis exactly once and returns its diagnostics.
// Every other accessor calls it first, so facts are always computed over
// a typed unit.
func (s *Snapshot) Typecheck() []error {
	s.typeOnce.Do(func() {
		sp := s.span(obs.StageTypecheck)
		defer sp.End()
		s.typeErrs = typecheck.Check(s.unit)
		sp.Attr("funcs", fmt.Sprint(len(s.unit.Funcs)))
		if len(s.typeErrs) > 0 {
			sp.Attr("diagnostics", fmt.Sprint(len(s.typeErrs)))
		}
	})
	return s.typeErrs
}

// CFG returns the control-flow graph for fn, built once.
func (s *Snapshot) CFG(fn *cast.FuncDef) *cfg.Graph {
	s.Typecheck()
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	g, ok := s.cfgs[fn]
	if !ok {
		sp := s.span(obs.StageCFG).Attr("func", fn.Name)
		g = cfg.Build(fn)
		sp.End()
		s.cfgs[fn] = g
	}
	return g
}

// Reaching returns the reaching-definitions solution for fn, solved once
// over the shared CFG and alias sets.
func (s *Snapshot) Reaching(fn *cast.FuncDef) *dataflow.ReachingDefs {
	g, aliases := s.CFG(fn), s.Aliases()
	s.rdMu.Lock()
	defer s.rdMu.Unlock()
	rd, ok := s.rds[fn]
	if !ok {
		sp := s.span(obs.StageReaching).Attr("func", fn.Name)
		rd = dataflow.ComputeReachingLimits(g, aliases, s.conf.Limits)
		sp.Attr("steps", fmt.Sprint(rd.Steps))
		if rd.Degraded {
			reason := fmt.Sprintf("reaching definitions budget exhausted in %s", fn.Name)
			sp.Attr("degraded", reason)
			s.noteDegraded(reason)
		}
		sp.End()
		s.rds[fn] = rd
	}
	return rd
}

// PointsTo returns the unit-wide points-to graph, solved once.
func (s *Snapshot) PointsTo() *pointsto.Graph {
	s.ptOnce.Do(func() {
		s.Typecheck()
		opts := s.conf.PointsTo
		if opts.Limits == (fault.Limits{}) {
			opts.Limits = s.conf.Limits
		}
		sp := s.span(obs.StagePointsTo)
		defer sp.End()
		if c := s.carry; c != nil && c.symbolsHold(s) {
			s.pt, s.ptCarried = pointsto.Reanalyze(c.pt, s.unit, c.fi, opts)
		} else {
			s.pt = pointsto.Analyze(s.unit, opts)
		}
		sp.Attr("iterations", fmt.Sprint(s.pt.Stats.Iterations)).
			Attr("nodes", fmt.Sprint(len(s.pt.Nodes))).
			Attr("carried", fmt.Sprint(s.ptCarried))
		if s.pt.Stats.Degraded {
			reason := "points-to budget exhausted; alias sets degraded to everything-aliases"
			sp.Attr("degraded", reason)
			s.noteDegraded(reason)
		}
	})
	return s.pt
}

// Aliases returns the alias sets derived from the points-to graph; a
// graph carried from the predecessor's rebinds its alias sets.
func (s *Snapshot) Aliases() *pointsto.AliasSets {
	s.aliasOnce.Do(func() {
		pt := s.PointsTo()
		sp := s.span(obs.StageAliases).Attr("carried", fmt.Sprint(s.ptCarried))
		if s.ptCarried {
			s.aliases = s.carry.aliases.Rebind(pt)
		} else {
			s.aliases = pointsto.ComputeAliases(pt)
		}
		sp.End()
	})
	return s.aliases
}

// CallGraph returns the unit call graph, built once.
func (s *Snapshot) CallGraph() *callgraph.Graph {
	s.cgOnce.Do(func() {
		s.Typecheck()
		sp := s.span(obs.StageCallGraph).Attr("funcs", fmt.Sprint(len(s.unit.Funcs)))
		walks := s.bodies()
		calls := make([][]*cast.CallExpr, len(walks))
		for i, w := range walks {
			calls[i] = w.calls
		}
		s.cg = callgraph.Build(s.unit, calls)
		sp.End()
	})
	return s.cg
}

// MayModify returns the interprocedural may-modify facts (Section III-C),
// solved once over every body's summary.
func (s *Snapshot) MayModify() *interproc.Result {
	s.interOnce.Do(func() {
		s.Typecheck()
		sp := s.span(obs.StageMayMod)
		walks := s.bodies()
		sums := make([]interproc.Summary, len(walks))
		for i, w := range walks {
			sums[i] = w.mods
		}
		s.inter = interproc.Analyze(s.unit, sums)
		sp.End()
	})
	return s.inter
}

// BufLenAnalyzer returns the symbolic buffer-length analyzer (Algorithm 1)
// backed by this snapshot's CFGs, reaching definitions and alias sets.
func (s *Snapshot) BufLenAnalyzer() *buflen.Analyzer {
	s.bufOnce.Do(func() {
		s.Typecheck()
		sp := s.span(obs.StageBufLen)
		s.buf = buflen.NewAnalyzer(s.unit, s)
		sp.End()
	})
	return s.buf
}

// Findings runs the static overflow oracle exactly once — reusing the
// snapshot's call graph, CFGs and buffer-length analysis — and returns
// its CWE-classified findings in source order.
func (s *Snapshot) Findings() []overflow.Finding {
	s.findOnce.Do(func() {
		s.Typecheck()
		opts := overflow.DefaultOptions()
		if s.conf.Overflow != nil {
			opts = *s.conf.Overflow
		}
		if opts.Limits == (fault.Limits{}) {
			opts.Limits = s.conf.Limits
		}
		sp := s.span(obs.StageOverflow)
		defer sp.End()
		an := overflow.New(s.unit, opts, s)
		s.findings = an.Analyze()
		sp.Attr("findings", fmt.Sprint(len(s.findings)))
		if deg := an.Degradations(); len(deg) > 0 {
			sp.Attr("degraded", deg[0])
			s.noteDegraded(deg...)
		}
	})
	return s.findings
}

// ExternalCalls evaluates every call to a function this TU does not
// define under the caller's intraprocedural interval solution, returning
// transportable seeds (overflow.CallSeed) for the project linker. It
// shares the snapshot's call graph and CFGs and runs at most once.
func (s *Snapshot) ExternalCalls() []overflow.CallSeed {
	s.externOnce.Do(func() {
		s.Typecheck()
		opts := overflow.DefaultOptions()
		if s.conf.Overflow != nil {
			opts = *s.conf.Overflow
		}
		if opts.Limits == (fault.Limits{}) {
			opts.Limits = s.conf.Limits
		}
		sp := s.span(obs.StageOverflow)
		defer sp.End()
		an := overflow.New(s.unit, opts, s)
		s.externCalls = an.ExternalCalls()
		sp.Attr("extern_calls", fmt.Sprint(len(s.externCalls)))
	})
	return s.externCalls
}

// IntFindings runs the integer-overflow oracle (internal/intflow)
// exactly once — reusing the snapshot's call graph, CFGs and may-modify
// facts — and returns its CWE-190/191/680 findings in source order.
func (s *Snapshot) IntFindings() []overflow.Finding {
	s.intOnce.Do(func() {
		s.Typecheck()
		opts := intflow.DefaultOptions()
		if s.conf.Intflow != nil {
			opts = *s.conf.Intflow
		}
		if opts.Limits == (fault.Limits{}) {
			opts.Limits = s.conf.Limits
		}
		sp := s.span(obs.StageIntflow)
		defer sp.End()
		an := intflow.New(s.unit, opts, s)
		s.intFindings = an.Analyze()
		sp.Attr("findings", fmt.Sprint(len(s.intFindings)))
		if deg := an.Degradations(); len(deg) > 0 {
			sp.Attr("degraded", deg[0])
			s.noteDegraded(deg...)
		}
	})
	return s.intFindings
}

// Snapshot implements the facts interfaces of its consumers.
var (
	_ buflen.Facts   = (*Snapshot)(nil)
	_ overflow.Facts = (*Snapshot)(nil)
	_ intflow.Facts  = (*Snapshot)(nil)
)
