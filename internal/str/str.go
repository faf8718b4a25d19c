package str

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/clex"
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
	// member (precondition 2), or a block-scope static or extern
	// declaration, whose object outlives the function or is a global.
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

// FileResult is the outcome of running STR over a translation unit: a
// decision per candidate variable and the edits that replace the applied
// ones. Turning edits into text is the caller's job (core.FixParsed).
type FileResult struct {
	Vars []VarResult
	// Edits rewrite the functions declaring applied variables, sorted and
	// checked against the unit's text, each tagged with its owning
	// function as "func:<name>" (STR rewrites are all-or-nothing per
	// function: the inserted stralloc calls and renames within one
	// function depend on each other). Omitted from serialized reports.
	Edits []edit.Delta `json:"-"`
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
	// names keeps the backing variables' names fresh.
	names cast.Names
}

// NewTransformer prepares STR on the unit's analysis-facts snapshot:
// type analysis, the call graph and the interprocedural may-modify facts
// are shared with every other client of s.
func NewTransformer(s *analysis.Snapshot) *Transformer {
	s.Typecheck()
	return &Transformer{
		unit:    s.Unit(),
		names:   cast.NewNames(s.Unit()),
		inter:   s.MayModify(),
		targets: make(map[*cast.Symbol]bool),
	}
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

// apply decides the candidates of fns, queues the rewrite of every
// function and validates it against the unit's text.
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
		}
		res.Vars = append(res.Vars, vr)
	}

	if len(t.targets) == 0 {
		return res, nil
	}

	// Phase 2: rewrite every statement that touches a target.
	edits := edit.NewScript()
	for _, fn := range fns {
		edits.SetOwner("func:" + fn.Name)
		t.renderFunc(fn, edits)
	}
	res.Edits = edits.Deltas()
	if err := edit.Validate(len(t.unit.File.Src()), res.Edits); err != nil {
		return nil, fmt.Errorf("str: apply edits: %w", err)
	}
	return res, nil
}

// qualifier returns the first type qualifier ds spells, or "".
func (t *Transformer) qualifier(ds *cast.DeclStmt) string {
	// The parser lexed these bytes, so they lex without error.
	ext := ds.Extent()
	toks, _ := clex.Tokenize(t.unit.File.Src()[ext.Pos:ext.End])
	for _, tok := range toks {
		if tok.IsKeyword("const") || tok.IsKeyword("volatile") || tok.IsKeyword("restrict") || tok.IsKeyword("__restrict") {
			return tok.Text
		}
	}
	return ""
}

// checkVar evaluates the preconditions for one candidate by classifying
// every use of the symbol (Section II-B2 plus the conservative
// interprocedural rule of Section III-C).
func (t *Transformer) checkVar(c *candidate) (FailReason, string) {
	switch c.decl.Storage {
	case cast.StorageStatic:
		return FailNotLocal, "static storage"
	case cast.StorageExtern:
		return FailNotLocal, "extern declaration"
	}
	if c.inFor {
		return FailUnsupportedUse, "declared in for-initializer"
	}
	for _, d := range c.stmt.Decls {
		// renderDeclStmt spells a kept sibling from its type.
		if !plainDeclarator(d.Type) {
			return FailUnsupportedUse, "declared beside function declarator " + d.Name
		}
	}
	if len(c.stmt.Decls) > 1 {
		// ctype has no qualifiers, so that spelling would drop them.
		if q := t.qualifier(c.stmt); q != "" {
			return FailUnsupportedUse, "declared beside siblings under " + q
		}
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
// variable (patterns 3, 5-7). Values outside the patterns — notably
// interior pointers returned by library calls or foreign char pointers —
// would turn aliasing into copying, so the variable is refused. So is a
// null pointer (pattern 4): a stralloc has no null state, so "s = 0" on
// the stralloc * makes every later s->s dereference NULL.
func (t *Transformer) checkPointerRHS(rhs cast.Expr, fail func(FailReason, string)) {
	if nullPointer(rhs) {
		fail(FailUnsupportedUse, "assigned null pointer "+t.text(rhs))
		return
	}
	switch x := cast.Unparen(rhs).(type) {
	case *cast.IntLit:
		fail(FailUnsupportedUse, "pointer assigned integer value")
	case *cast.StringLit:
		// Pattern 6.
	case *cast.CastExpr:
		// Pattern 7.
	case *cast.CallExpr:
		if !pointsto.IsHeapAllocator(x.Callee()) {
			fail(FailUnsupportedUse, "assigned result of "+x.Callee())
		}
	case *cast.Ident:
		if x.Sym == nil || !t.targets[x.Sym] {
			fail(FailUnsupportedUse, "assigned from foreign char pointer "+x.Name)
		}
	default:
		fail(FailUnsupportedUse, "unsupported pointer value")
	}
}

// nullPointer reports whether e is a null pointer constant: 0, NULL, or
// a cast of one, as the preprocessed ((void *)0).
func nullPointer(e cast.Expr) bool {
	switch x := cast.Unparen(e).(type) {
	case *cast.IntLit:
		return x.Value == 0
	case *cast.Ident:
		return x.Name == "NULL"
	case *cast.CastExpr:
		return nullPointer(x.Operand)
	}
	return false
}

// checkUse classifies one identifier use by its parent context.
func (t *Transformer) checkUse(id *cast.Ident, fail func(FailReason, string)) {
	switch p := t.parentOf(id).(type) {
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
				if fs, ok := t.parentOf(p).(*cast.ForStmt); ok && fs.Post == cast.Expr(p) {
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
			// *buf reads and writes an element, as buf[0] does.
			t.checkElement(p, fail)
		}
	case *cast.PostfixExpr:
		if !t.isStatementLevel(p) {
			fail(FailUnsupportedUse, "increment used as a value")
		}
	case *cast.IndexExpr:
		// buf[i] reads/writes: patterns 11-13.
		t.checkElement(p, fail)
	case *cast.BinaryExpr:
		// *(buf ± n) reads and writes an element, as buf[n] does.
		if de, ok := t.parentOf(p).(*cast.UnaryExpr); ok && de.Op == cast.UnaryDeref {
			t.checkElement(de, fail)
		}
	case *cast.CallExpr:
		t.checkCallUse(p, id, fail)
	case *cast.SizeofExpr:
		// Pattern 10.
	case *cast.VarDecl:
		// Initializer use of another variable; value context.
	}
}

// checkElement refuses an element access (buf[i], *buf, *(buf ± n))
// used as an lvalue outside patterns 12-15: an element reads as a call
// returning char, which is no lvalue, and a plain write is a call
// returning a status, which must stand as a statement.
func (t *Transformer) checkElement(elem cast.Expr, fail func(FailReason, string)) {
	switch p := t.parentOf(elem).(type) {
	case *cast.AssignExpr:
		switch {
		case cast.Unparen(p.LHS) != elem:
		case p.Op != cast.AssignPlain:
			fail(FailUnsupportedUse, "compound assignment to element")
		case !t.isStatementLevel(p):
			fail(FailUnsupportedUse, "element assignment used as a value")
		}
	case *cast.UnaryExpr:
		switch p.Op {
		case cast.UnaryAddrOf:
			fail(FailUnsupportedUse, "address of element taken")
		case cast.UnaryPreInc, cast.UnaryPreDec:
			fail(FailUnsupportedUse, "element incremented or decremented")
		}
	case *cast.PostfixExpr:
		fail(FailUnsupportedUse, "element incremented or decremented")
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

// isStatementLevel reports whether the expression is the full expression
// of an ExprStmt or a for-statement clause (so multi-statement or
// void-valued rewrites are safe).
func (t *Transformer) isStatementLevel(e cast.Expr) bool {
	switch p := t.parentOf(e).(type) {
	case *cast.ExprStmt:
		return true
	case *cast.ForStmt:
		return p.Post == e // the post clause may be void-valued; cond may not
	default:
		return false
	}
}

// parentOf returns n's parent, looking through parentheses.
func (t *Transformer) parentOf(n cast.Node) cast.Node {
	parent := t.parents[n]
	for {
		p, ok := parent.(*cast.ParenExpr)
		if !ok {
			return parent
		}
		parent = t.parents[p]
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
