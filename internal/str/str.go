package str

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/ctype"
	"repro/internal/edit"
	"repro/internal/interproc"
	"repro/internal/overflow"
	"repro/internal/pointsto"
)

// FailReason classifies why STR refused a candidate variable.
type FailReason int

// Failure reasons, mirroring the preconditions of Section II-B2 and the
// conservative interprocedural analysis of Section III-C.
const (
	FailNone FailReason = iota
	// FailNotLocal: the variable is a global, a parameter, or a struct
	// member (precondition 2).
	FailNotLocal
	// FailUnsupportedLib: the variable is used in an unsupported C
	// library function (precondition 3).
	FailUnsupportedLib
	// FailUserFnMayModify: a user-defined function receiving the pointer
	// may modify the buffer (Section III-C's conservative interprocedural
	// analysis).
	FailUserFnMayModify
	// FailUnsupportedUse: the variable appears in an expression shape the
	// replacement patterns do not cover (e.g. its address is taken).
	FailUnsupportedUse
	// FailMacroOrHeader: project mode only — a rewrite for this
	// variable's function maps into a macro expansion or an included
	// header, so the whole function's STR is declined rather than
	// miswriting the user's text. Appended after the paper-derived
	// reasons to keep their serialized values stable.
	FailMacroOrHeader
	// FailSafeLib: the buffer is the one a repair dialect's bounded
	// function writes through or malloc_usable_size measures (for
	// instance a call SLR inserted), so it keeps its raw char storage.
	// Appended last for the same reason.
	FailSafeLib
)

var _failNames = map[FailReason]string{
	FailNone:            "none",
	FailMacroOrHeader:   "rewrite target inside a macro expansion or included header",
	FailNotLocal:        "not a locally declared variable",
	FailUnsupportedLib:  "used in unsupported C library function",
	FailUserFnMayModify: "user-defined function may modify the buffer",
	FailUnsupportedUse:  "unsupported use of the variable",
	FailSafeLib:         "buffer bounded by a safe library function",
}

// String returns the reason description.
func (r FailReason) String() string { return _failNames[r] }

// VarResult records the outcome for one candidate variable.
type VarResult struct {
	Name string
	// Func is the function the variable is declared in.
	Func string
	Pos  ctoken.Position
	// Extent is the source range of the variable's declaration (the
	// anchor project mode remaps positions through).
	Extent  ctoken.Extent
	Applied bool
	Reason  FailReason
	Detail  string
	// IsPointer distinguishes char pointers from char arrays. The paper's
	// Table VI counts pointers ("STR was applied to all char pointers in
	// local scope"); arrays are also transformable (precondition 1 allows
	// both) but reported separately.
	IsPointer bool
	// Risk is the static overflow verdict involving this variable, if the
	// overflow oracle reported one (see FileResult.AttachFindings).
	Risk *overflow.Finding
}

// FileResult is the outcome of running STR over a translation unit.
type FileResult struct {
	NewSource string
	Vars      []VarResult
	// Edits are the raw textual edits behind NewSource, tagged with
	// their owning function as "func:<name>" (STR rewrites are
	// all-or-nothing per function: the inserted stralloc calls and
	// renames within one function depend on each other). Omitted from
	// serialized reports.
	Edits []edit.Delta `json:"-"`
	// NeedsStralloc reports that the output uses the stralloc library;
	// callers must make internal/stralloc's C header and implementation
	// available at build time.
	NeedsStralloc bool
	// Log carries the detailed refusal messages the paper prints for
	// variables that fail the interprocedural precondition.
	Log []string
}

// Candidates returns the number of candidate variables.
func (r *FileResult) Candidates() int { return len(r.Vars) }

// AppliedCount returns the number of replaced variables.
func (r *FileResult) AppliedCount() int {
	n := 0
	for _, v := range r.Vars {
		if v.Applied {
			n++
		}
	}
	return n
}

// AttachFindings pairs each candidate variable with the most severe
// overflow oracle finding that names it as the overflowed object in the
// same function. Matching is by (function, variable) name because STR
// may run on transformed text whose extents no longer line up with the
// source the oracle analyzed.
func (r *FileResult) AttachFindings(fs []overflow.Finding) {
	for i := range r.Vars {
		v := &r.Vars[i]
		for j := range fs {
			f := &fs[j]
			if f.Object == "" || f.Object != v.Name || f.Function != v.Func {
				continue
			}
			if v.Risk == nil || f.Severity > v.Risk.Severity {
				v.Risk = f
			}
		}
	}
}

// RankedVars returns the candidate variables ordered by static risk:
// definite overflows first, then possible, then unflagged variables,
// each group in source order. It does not modify r.Vars.
func (r *FileResult) RankedVars() []VarResult {
	out := append([]VarResult(nil), r.Vars...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := overflow.Severity(0), overflow.Severity(0)
		if out[i].Risk != nil {
			si = out[i].Risk.Severity
		}
		if out[j].Risk != nil {
			sj = out[j].Risk.Severity
		}
		if si != sj {
			return si > sj
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Pos.Col < out[j].Pos.Col
	})
	return out
}

// candidate is one local char pointer/array declaration.
type candidate struct {
	fn    *cast.FuncDef
	decl  *cast.VarDecl
	stmt  *cast.DeclStmt
	inFor bool // declared in a for-init (single-statement position)
}

// Transformer applies STR to one translation unit.
type Transformer struct {
	unit  *cast.TranslationUnit
	inter *interproc.Result
	// parents maps each node inside the functions apply runs over to
	// its parent.
	parents map[cast.Node]cast.Node
	// targets is the final eligible symbol set (phase 1 output).
	targets map[*cast.Symbol]bool
	// declOf maps a target symbol to its candidate record.
	declOf map[*cast.Symbol]*candidate
	// usedNames for fresh temporaries.
	usedNames map[string]struct{}
}

// NewTransformer prepares STR on the unit's analysis-facts snapshot:
// type analysis, the call graph and the interprocedural may-modify facts
// are shared with every other client of s.
func NewTransformer(s *analysis.Snapshot) *Transformer {
	s.Typecheck()
	unit := s.Unit()
	t := &Transformer{
		unit:      unit,
		inter:     s.MayModify(),
		targets:   make(map[*cast.Symbol]bool),
		declOf:    make(map[*cast.Symbol]*candidate),
		usedNames: make(map[string]struct{}),
	}
	for _, s := range unit.Symbols {
		t.usedNames[s.Name] = struct{}{}
	}
	return t
}

// buildParents records each node's parent inside fns for context
// classification; every query is about a node inside a function body.
func buildParents(fns []*cast.FuncDef) map[cast.Node]cast.Node {
	parents := make(map[cast.Node]cast.Node)
	var walk func(n cast.Node)
	walk = func(n cast.Node) {
		cast.EachChild(n, func(c cast.Node) {
			parents[c] = n
			walk(c)
		})
	}
	for _, fn := range fns {
		walk(fn)
	}
	return parents
}

// findCandidates collects the local char pointer/array declarations of
// fns in source order.
func (t *Transformer) findCandidates(fns []*cast.FuncDef) []*candidate {
	var out []*candidate
	for _, fn := range fns {
		fn := fn
		cast.Inspect(fn.Body, func(n cast.Node) bool {
			ds, ok := n.(*cast.DeclStmt)
			if !ok {
				return true
			}
			_, inFor := t.parents[ds].(*cast.ForStmt)
			for _, d := range ds.Decls {
				// An unnamed declarator (e.g. a stray "char[];") has no
				// variable to replace; rewriting it would corrupt the text.
				if d.Sym == nil || d.Global || d.Name == "" {
					continue
				}
				if !ctype.IsCharPointer(d.Type) && !ctype.IsCharArray(d.Type) {
					continue
				}
				c := &candidate{fn: fn, decl: d, stmt: ds, inFor: inFor}
				out = append(out, c)
			}
			return true
		})
	}
	return out
}

// ApplyAll runs STR on every eligible local char pointer in the unit (the
// batch mode of Section IV). Ineligible candidates are reported with their
// failure reason and left untouched.
func (t *Transformer) ApplyAll() (*FileResult, error) {
	return t.apply(t.unit.Funcs)
}

// ApplyFuncs runs STR on the candidate variables of fns only, which must
// be function definitions of the unit in source order. A variable's
// preconditions read only its own function and the may-modify facts of
// its callees, so the variables reported are exactly those ApplyAll
// reports inside fns; incremental sessions use it to re-discover only
// the functions an edit invalidated.
func (t *Transformer) ApplyFuncs(fns []*cast.FuncDef) (*FileResult, error) {
	return t.apply(fns)
}

func (t *Transformer) apply(fns []*cast.FuncDef) (*FileResult, error) {
	res := &FileResult{}
	t.parents = buildParents(fns)
	cands := t.findCandidates(fns)

	// Phase 1: preconditions decide the target set. Eligibility is a
	// fixpoint: pointer-to-pointer assignments (pattern 5) are only safe
	// when both sides are transformed, so a variable's failure can cascade
	// to variables assigned from it.
	failReason := make(map[*cast.Symbol]FailReason)
	failDetail := make(map[*cast.Symbol]string)
	for _, c := range cands {
		t.targets[c.decl.Sym] = true
		t.declOf[c.decl.Sym] = c
	}
	for changed := true; changed; {
		changed = false
		for _, c := range cands {
			if !t.targets[c.decl.Sym] {
				continue
			}
			reason, detail := t.checkVar(c)
			if reason != FailNone {
				delete(t.targets, c.decl.Sym)
				failReason[c.decl.Sym] = reason
				failDetail[c.decl.Sym] = detail
				changed = true
			}
		}
	}
	for _, c := range cands {
		vr := VarResult{
			Name:      c.decl.Name,
			Func:      c.fn.Name,
			Pos:       t.unit.File.Position(c.decl.Extent().Pos),
			Extent:    c.decl.Extent(),
			IsPointer: ctype.IsCharPointer(c.decl.Type),
		}
		if t.targets[c.decl.Sym] {
			vr.Applied = true
		} else {
			vr.Reason = failReason[c.decl.Sym]
			vr.Detail = failDetail[c.decl.Sym]
			res.Log = append(res.Log, fmt.Sprintf("%s: STR not applied to %q: %s (%s)",
				vr.Pos, vr.Name, vr.Reason, vr.Detail))
		}
		res.Vars = append(res.Vars, vr)
	}

	if len(t.targets) == 0 {
		res.NewSource = t.unit.File.Src()
		return res, nil
	}
	res.NeedsStralloc = true

	// Phase 2: rewrite every statement that touches a target.
	edits := edit.NewScript()
	for _, fn := range fns {
		edits.SetOwner("func:" + fn.Name)
		t.renderFunc(fn, edits)
	}
	res.Edits = edits.Deltas()
	out, err := edit.Splice(t.unit.File.Src(), res.Edits)
	if err != nil {
		return nil, fmt.Errorf("str: apply edits: %w", err)
	}
	res.NewSource = out
	return res, nil
}

// checkVar evaluates the preconditions for one candidate by classifying
// every use of the symbol (Section II-B2 plus the conservative
// interprocedural rule of Section III-C).
func (t *Transformer) checkVar(c *candidate) (FailReason, string) {
	if c.inFor {
		return FailUnsupportedUse, "declared in for-initializer"
	}
	sym := c.decl.Sym
	reason := FailNone
	detail := ""
	fail := func(r FailReason, d string) {
		if reason == FailNone {
			reason, detail = r, d
		}
	}
	if c.decl.Init != nil {
		t.checkPointerRHS(c.decl.Init, fail)
	}
	cast.Inspect(c.fn.Body, func(n cast.Node) bool {
		if reason != FailNone {
			return false
		}
		id, ok := n.(*cast.Ident)
		if !ok || id.Sym != sym {
			return true
		}
		t.checkUse(id, fail)
		return true
	})
	return reason, detail
}

// checkPointerRHS validates the value assigned to a target pointer
// variable (patterns 3-7). Values outside the patterns — notably interior
// pointers returned by library calls or foreign char pointers — would turn
// aliasing into copying, so the variable is refused.
func (t *Transformer) checkPointerRHS(rhs cast.Expr, fail func(FailReason, string)) {
	switch x := cast.Unparen(rhs).(type) {
	case *cast.IntLit:
		if x.Value != 0 {
			fail(FailUnsupportedUse, "pointer assigned integer value")
		}
	case *cast.StringLit:
		// Pattern 6.
	case *cast.CastExpr:
		// Pattern 7 (including null casts).
	case *cast.CallExpr:
		if !pointsto.IsHeapAllocator(x.Callee()) {
			fail(FailUnsupportedUse, "assigned result of "+x.Callee())
		}
	case *cast.Ident:
		if x.Name == "NULL" {
			return
		}
		if x.Sym == nil || !t.targets[x.Sym] {
			fail(FailUnsupportedUse, "assigned from foreign char pointer "+x.Name)
		}
	default:
		fail(FailUnsupportedUse, "unsupported pointer value")
	}
}

// checkUse classifies one identifier use by its parent context.
func (t *Transformer) checkUse(id *cast.Ident, fail func(FailReason, string)) {
	parent := t.parents[id]
	// Look through parentheses.
	for {
		p, ok := parent.(*cast.ParenExpr)
		if !ok {
			break
		}
		parent = t.parents[p]
	}
	switch p := parent.(type) {
	case *cast.AssignExpr:
		if cast.Unparen(p.LHS) == cast.Expr(id) {
			// Writes to the pointer variable itself: patterns 3-7 plus
			// compound arithmetic (patterns 8-9). Assignments used as
			// values (q = (buf = x)) are outside the patterns.
			if !t.isStatementLevel(p) {
				fail(FailUnsupportedUse, "assignment to buffer used as a value")
				return
			}
			switch p.Op {
			case cast.AssignPlain:
				// Pattern 3 expands allocations into several statements,
				// which a for-post clause cannot hold.
				if t.inForPost(p) {
					if c, ok := cast.Unparen(p.RHS).(*cast.CallExpr); ok && pointsto.IsHeapAllocator(c.Callee()) {
						fail(FailUnsupportedUse, "allocation in for-post clause")
						return
					}
				}
				t.checkPointerRHS(p.RHS, fail)
				return
			case cast.AssignAdd, cast.AssignSub:
				return
			default:
				fail(FailUnsupportedUse, "compound assignment "+p.Op.String())
				return
			}
		}
		// Value side: fine.
	case *cast.UnaryExpr:
		switch p.Op {
		case cast.UnaryAddrOf:
			fail(FailUnsupportedUse, "address of buffer taken")
		case cast.UnaryPreInc, cast.UnaryPreDec:
			if !t.isStatementLevel(p) {
				fail(FailUnsupportedUse, "increment used as a value")
			}
		case cast.UnaryDeref:
			// Reads are fine; writes are handled by the assignment case
			// that owns the deref.
		}
	case *cast.PostfixExpr:
		if !t.isStatementLevel(p) {
			fail(FailUnsupportedUse, "increment used as a value")
		}
	case *cast.IndexExpr:
		// buf[i] reads/writes: patterns 11-13. Compound assignment onto
		// elements is outside the patterns.
		if a, ok := t.parents[p].(*cast.AssignExpr); ok && cast.Unparen(a.LHS) == cast.Expr(p) {
			if a.Op != cast.AssignPlain {
				fail(FailUnsupportedUse, "compound assignment to element")
			}
		}
	case *cast.CallExpr:
		t.checkCallUse(p, id, fail)
	case *cast.SizeofExpr:
		// Pattern 10.
	case *cast.VarDecl:
		// Initializer use of another variable; value context.
	}
}

// checkCallUse applies precondition 3 and the interprocedural rule.
func (t *Transformer) checkCallUse(call *cast.CallExpr, id *cast.Ident, fail func(FailReason, string)) {
	// Find the argument position holding (an expression containing) id.
	argIdx := -1
	for i, a := range call.Args {
		found := false
		cast.Inspect(a, func(n cast.Node) bool {
			if n == cast.Node(id) {
				found = true
				return false
			}
			return true
		})
		if found {
			argIdx = i
			break
		}
	}
	if argIdx < 0 {
		// The identifier is the callee or inside it: calling through a
		// char pointer is nonsense; ignore.
		return
	}
	name := call.Callee()
	f, isLib := backend.Library(name)
	switch {
	case !isLib:
		// User-defined or unknown function: the conservative
		// interprocedural may-modify analysis decides (Section III-C).
		if t.inter.MayModifyArg(call, argIdx) {
			fail(FailUserFnMayModify, name)
		}
	case f.STR == backend.StrUnsupported:
		fail(FailUnsupportedLib, name)
	case f.STR == backend.StrSafe && argIdx == 0:
		fail(FailSafeLib, name)
	case f.STR == backend.StrMapped && argIdx == 0:
		// Destination position: the argument must be the plain
		// identifier for the mapped rewrite.
		if _, ok := cast.Unparen(call.Args[0]).(*cast.Ident); !ok && name != "strlen" {
			fail(FailUnsupportedUse, "destination expression too complex for "+name)
		}
	case slices.Contains(f.Writes, argIdx):
		// A library writer without a stralloc rewrite; a read-only
		// position is rewritten to buf->s.
		fail(FailUnsupportedLib, name)
	}
}

// inForPost reports whether the expression is a for statement's post
// clause.
func (t *Transformer) inForPost(e cast.Expr) bool {
	parent := t.parents[e]
	for {
		p, ok := parent.(*cast.ParenExpr)
		if !ok {
			break
		}
		parent = t.parents[p]
	}
	fs, ok := parent.(*cast.ForStmt)
	return ok && fs.Post == e
}

// isStatementLevel reports whether the expression is the full expression
// of an ExprStmt or a for-statement clause (so multi-statement or
// void-valued rewrites are safe).
func (t *Transformer) isStatementLevel(e cast.Expr) bool {
	parent := t.parents[e]
	for {
		p, ok := parent.(*cast.ParenExpr)
		if !ok {
			break
		}
		parent = t.parents[p]
	}
	switch p := parent.(type) {
	case *cast.ExprStmt:
		return true
	case *cast.ForStmt:
		return p.Post == e // the post clause may be void-valued; cond may not
	default:
		return false
	}
}

// text returns the source spelling of a node.
func (t *Transformer) text(n cast.Node) string {
	return t.unit.File.Slice(n.Extent())
}

// isTarget reports whether the expression is an identifier bound to a
// transformed symbol.
func (t *Transformer) isTarget(e cast.Expr) bool {
	id, ok := cast.Unparen(e).(*cast.Ident)
	return ok && id.Sym != nil && t.targets[id.Sym]
}

// targetName returns the identifier name for a target expression.
func (t *Transformer) targetName(e cast.Expr) string {
	return cast.Unparen(e).(*cast.Ident).Name
}

// containsTarget reports whether any target identifier occurs inside n.
func (t *Transformer) containsTarget(n cast.Node) bool {
	found := false
	cast.Inspect(n, func(m cast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*cast.Ident); ok && id.Sym != nil && t.targets[id.Sym] {
			found = true
			return false
		}
		return true
	})
	return found
}

// freshName returns an unused identifier based on base.
func (t *Transformer) freshName(base string) string {
	if _, taken := t.usedNames[base]; !taken {
		t.usedNames[base] = struct{}{}
		return base
	}
	for i := 2; ; i++ {
		name := fmt.Sprintf("%s_%d", base, i)
		if _, taken := t.usedNames[name]; !taken {
			t.usedNames[name] = struct{}{}
			return name
		}
	}
}
