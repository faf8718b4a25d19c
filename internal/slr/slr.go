package slr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/buflen"
	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/edit"
	"repro/internal/overflow"
)

// SiteResult records the outcome of attempting SLR on one call site.
type SiteResult struct {
	// Function is the unsafe function at the site.
	Function string
	// SafeName is the replacement callee the active backend targets for
	// this site (recorded even when the site was not transformed, so
	// summaries can say what would have been emitted).
	SafeName string
	// Pos locates the call in the source.
	Pos ctoken.Position
	// Extent is the source range of the call expression.
	Extent ctoken.Extent
	// Applied reports whether the site was transformed.
	Applied bool
	// Size is the computed buffer size (valid when Applied).
	Size buflen.Size
	// Failure explains a precondition failure (set when !Applied).
	Failure *buflen.Failure
	// Risk is the static overflow verdict covering this call, if the
	// overflow oracle reported one (see FileResult.AttachFindings).
	Risk *overflow.Finding
}

// FileResult is the outcome of running SLR over a translation unit.
type FileResult struct {
	// NewSource is the transformed text (equal to the input when nothing
	// was applied).
	NewSource string
	// Sites lists every candidate call site in source order.
	Sites []SiteResult
	// NeedsGlib reports that the output calls safe functions outside the
	// hosted C standard library, so the build needs the backend's
	// library — -lglib-2.0 for the default glib dialect, -lbsd for BSD
	// strlcpy, a TR 24731-1 implementation for c11k (the paper edits the
	// Makefile; we surface the requirement to the caller). The field
	// name predates pluggable backends and is kept for compatibility.
	NeedsGlib bool
	// Edits are the raw textual edits behind NewSource, each tagged with
	// its owning site as "site:<index into Sites>". Project mode remaps
	// them through the preprocessor's source map instead of using
	// NewSource. Omitted from serialized reports.
	Edits []edit.Delta `json:"-"`
}

// Candidates returns the number of candidate call sites.
func (r *FileResult) Candidates() int { return len(r.Sites) }

// AppliedCount returns the number of transformed call sites.
func (r *FileResult) AppliedCount() int {
	n := 0
	for _, s := range r.Sites {
		if s.Applied {
			n++
		}
	}
	return n
}

// AttachFindings pairs each candidate site with the most severe overflow
// oracle finding whose extent overlaps the call expression. The findings
// must come from analyzing the same source text the transformer parsed,
// so that extents are comparable.
func (r *FileResult) AttachFindings(fs []overflow.Finding) {
	for i := range r.Sites {
		s := &r.Sites[i]
		for j := range fs {
			f := &fs[j]
			if f.Extent.Pos >= s.Extent.End || s.Extent.Pos >= f.Extent.End {
				continue
			}
			if s.Risk == nil || f.Severity > s.Risk.Severity {
				s.Risk = f
			}
		}
	}
}

// RankedSites returns the candidate sites ordered by static risk:
// definite overflows first, then possible, then unflagged sites, each
// group in source order. It does not modify r.Sites.
func (r *FileResult) RankedSites() []SiteResult {
	out := append([]SiteResult(nil), r.Sites...)
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
		return out[i].Extent.Pos < out[j].Extent.Pos
	})
	return out
}

// Transformer applies SLR to one translation unit.
type Transformer struct {
	unit     *cast.TranslationUnit
	analyzer *buflen.Analyzer
	// be is the safe-function dialect the rewrite targets.
	be backend.Backend
	// usedNames tracks identifiers in the unit so generated temporaries
	// are fresh.
	usedNames map[string]struct{}
}

// NewTransformer prepares a transformer on the unit's analysis-facts
// snapshot — type analysis, points-to, alias sets, CFGs and reaching
// definitions are shared with every other client of s — targeting the
// repair backend be; nil selects the default (glib).
func NewTransformer(s *analysis.Snapshot, be backend.Backend) *Transformer {
	s.Typecheck()
	if be == nil {
		be = backend.Default()
	}
	unit := s.Unit()
	t := &Transformer{
		unit:      unit,
		analyzer:  s.BufLenAnalyzer(),
		be:        be,
		usedNames: make(map[string]struct{}),
	}
	for _, s := range unit.Symbols {
		t.usedNames[s.Name] = struct{}{}
	}
	return t
}

// candidate is one unsafe call found in the unit.
type candidate struct {
	fn   *cast.FuncDef
	call *cast.CallExpr
	rule backend.Replacement
	// stmt is the smallest statement enclosing the call (for gets/memcpy
	// which insert neighbouring statements).
	stmt cast.Stmt
	// inBlock reports that stmt is a direct item of a compound statement.
	// When false (a brace-less if/while arm), multi-statement rewrites
	// must add braces or the inserted statements would escape the guard.
	inBlock bool
	// valueUsed reports that the call is not the whole expression of a
	// statement or a for-post clause, so the program reads its value.
	valueUsed bool
}

// findCandidates walks fns for unsafe calls in source order.
func (t *Transformer) findCandidates(fns []*cast.FuncDef) []candidate {
	var out []candidate
	for _, fn := range fns {
		fn := fn
		var walkStmt func(s cast.Stmt, inBlock bool)
		// walkExpr collects the calls in e; discarded reports that the
		// program never reads e's value.
		walkExpr := func(e cast.Expr, enclosing cast.Stmt, inBlock, discarded bool) {
			cast.Inspect(e, func(n cast.Node) bool {
				call, ok := n.(*cast.CallExpr)
				if !ok {
					return true
				}
				rule, ok := t.be.Lookup(call.Callee())
				if !ok {
					return true
				}
				out = append(out, candidate{
					fn: fn, call: call, rule: rule, stmt: enclosing, inBlock: inBlock,
					valueUsed: !discarded || cast.Unparen(e) != cast.Expr(call),
				})
				return true
			})
		}
		walkStmt = func(s cast.Stmt, inBlock bool) {
			if s == nil {
				return
			}
			switch x := s.(type) {
			case *cast.ExprStmt:
				walkExpr(x.X, x, inBlock, true)
			case *cast.DeclStmt:
				for _, d := range x.Decls {
					if d.Init != nil {
						walkExpr(d.Init, x, inBlock, false)
					}
				}
			case *cast.ReturnStmt:
				if x.Result != nil {
					walkExpr(x.Result, x, inBlock, false)
				}
			case *cast.IfStmt:
				walkExpr(x.Cond, x, inBlock, false)
				walkStmt(x.Then, false)
				walkStmt(x.Else, false)
			case *cast.WhileStmt:
				walkExpr(x.Cond, x, inBlock, false)
				walkStmt(x.Body, false)
			case *cast.DoWhileStmt:
				walkStmt(x.Body, false)
				walkExpr(x.Cond, x, inBlock, false)
			case *cast.ForStmt:
				walkStmt(x.Init, false)
				if x.Cond != nil {
					walkExpr(x.Cond, x, false, false)
				}
				if x.Post != nil {
					walkExpr(x.Post, x, false, true)
				}
				walkStmt(x.Body, false)
			case *cast.CompoundStmt:
				for _, item := range x.Items {
					walkStmt(item, true)
				}
			case *cast.LabeledStmt:
				walkStmt(x.Stmt, inBlock)
			case *cast.SwitchStmt:
				walkExpr(x.Tag, x, inBlock, false)
				walkStmt(x.Body, false)
			case *cast.CaseStmt:
				walkStmt(x.Stmt, true)
			}
		}
		walkStmt(fn.Body, true)
	}
	return out
}

// ApplyAll runs SLR on every candidate call site in the unit and returns
// the rewritten source plus per-site outcomes. This is the batch mode used
// by the evaluation (Section IV); ApplyAt transforms a single selected
// site.
func (t *Transformer) ApplyAll() (*FileResult, error) {
	return t.apply(t.unit.Funcs, nil)
}

// ApplyFuncs runs SLR on the candidate call sites inside fns only, which
// must be function definitions of the unit in source order. SLR decides
// each site from its own function's facts, so the sites reported are
// exactly those ApplyAll reports inside fns; incremental sessions use it
// to re-discover only the functions an edit invalidated.
func (t *Transformer) ApplyFuncs(fns []*cast.FuncDef) (*FileResult, error) {
	return t.apply(fns, nil)
}

// ApplyAt runs SLR only on the call site covering the given source offset
// (the "developer selects a function call expression" workflow of Section
// II-A2).
func (t *Transformer) ApplyAt(offset ctoken.Pos) (*FileResult, error) {
	return t.apply(t.unit.Funcs, func(c candidate) bool {
		e := c.call.Extent()
		return e.Pos <= offset && offset < e.End
	})
}

func (t *Transformer) apply(fns []*cast.FuncDef, filter func(candidate) bool) (*FileResult, error) {
	res := &FileResult{}
	edits := edit.NewScript()
	for _, c := range t.findCandidates(fns) {
		if filter != nil && !filter(c) {
			continue
		}
		edits.SetOwner(fmt.Sprintf("site:%d", len(res.Sites)))
		site := SiteResult{
			Function: c.call.Callee(),
			SafeName: c.rule.Safe,
			Pos:      t.unit.File.Position(c.call.Extent().Pos),
			Extent:   c.call.Extent(),
		}
		size, fail := t.applyOne(c, edits)
		if fail != nil {
			site.Failure = fail
		} else {
			site.Applied = true
			site.Size = size
			if c.rule.NeedsLib {
				res.NeedsGlib = true
			}
		}
		res.Sites = append(res.Sites, site)
	}
	res.Edits = edits.Deltas()
	out, err := edit.Splice(t.unit.File.Src(), res.Edits)
	if err != nil {
		return nil, fmt.Errorf("slr: apply edits: %w", err)
	}
	res.NewSource = out
	return res, nil
}

// applyOne attempts one site, queueing edits on success.
func (t *Transformer) applyOne(c candidate, edits *edit.Script) (buflen.Size, *buflen.Failure) {
	if len(c.call.Args) < c.rule.MinArgs {
		return buflen.Size{}, &buflen.Failure{
			Reason: buflen.FailUnsupportedForm,
			Detail: fmt.Sprintf("%s with fewer than %d arguments", c.rule.Unsafe, c.rule.MinArgs),
		}
	}
	if safe, _ := backend.Library(c.rule.Safe); c.valueUsed && safe.Result != backend.ResultPointer {
		// Only a pointer-returning replacement (fgets, gets_s, the
		// clamped memcpy itself) gives a used value its old meaning.
		return buflen.Size{}, &buflen.Failure{Reason: buflen.FailValueUsed, Detail: c.rule.Safe}
	}
	dest := c.call.Args[0]
	size, fail := t.analyzer.BufferLength(c.fn, dest)
	if fail != nil {
		return buflen.Size{}, fail
	}
	switch c.rule.Kind {
	case backend.KindRename:
		t.editRename(c, size, edits)
	case backend.KindGets:
		t.editGets(c, size, edits)
	case backend.KindClamp:
		if f := t.editMemcpy(c, size, edits); f != nil {
			return buflen.Size{}, f
		}
	}
	return size, nil
}

// editRename renames the callee and inserts the size parameter where the
// dialect wants it: strcpy(dst, src) -> g_strlcpy(dst, src, sizeof(buf))
// under glib/bsd (size appended after the source), but
// strcpy_s(dst, sizeof(buf), src) under c11k (size before the source).
func (t *Transformer) editRename(c candidate, size buflen.Size, edits *edit.Script) {
	fun := cast.Unparen(c.call.Fun)
	edits.Add(edit.Replace(fun.Extent(), c.rule.Safe))
	edits.Add(edit.Insert(c.call.Args[c.rule.SizeAfterArg].Extent().End, ", "+size.CText()))
}

// editGets rewrites gets(dst) to the dialect's bounded line reader —
// fgets(dst, size, stdin) for glib/bsd, gets_s(dst, size) for c11k —
// and, when the reader keeps the terminating newline gets discards
// (fgets; Section III-B2), appends the newline-stripping sequence after
// the enclosing statement.
func (t *Transformer) editGets(c candidate, size buflen.Size, edits *edit.Script) {
	fun := cast.Unparen(c.call.Fun)
	edits.Add(edit.Replace(fun.Extent(), c.rule.Safe))
	dest := c.call.Args[c.rule.SizeAfterArg]
	ins := ", " + size.CText()
	for _, extra := range c.rule.ExtraArgs {
		ins += ", " + extra
	}
	edits.Add(edit.Insert(dest.Extent().End, ins))
	if !c.rule.StripNewline {
		return
	}

	destText := t.text(c.call.Args[0])
	checkVar := t.freshName("check")
	indent := t.indentOf(c.stmt.Extent())
	fix := fmt.Sprintf("\n%schar *%s = strchr(%s, '\\n');\n%sif (%s) { *%s = '\\0'; }",
		indent, checkVar, destText, indent, checkVar, checkVar)
	if !c.inBlock {
		// Brace-less branch arm: the stripping statements must stay under
		// the same guard as the call.
		edits.Add(edit.Insert(c.stmt.Extent().Pos, "{ "))
		fix += "\n" + indent + "}"
	}
	edits.Add(edit.Insert(c.stmt.Extent().End, fix))
}

// editMemcpy clamps the length parameter (Section III-B3). Option 1
// (length reused later) assigns the clamped value before the call; option
// 2 replaces the parameter with a ternary in place.
func (t *Transformer) editMemcpy(c candidate, size buflen.Size, edits *edit.Script) *buflen.Failure {
	if len(c.call.Args) < 3 {
		return &buflen.Failure{Reason: buflen.FailUnsupportedForm, Detail: "memcpy with fewer than 3 arguments"}
	}
	lenArg := c.call.Args[2]
	sizeText := size.CText()
	lenText := t.text(lenArg)
	if clampedBy(lenText, sizeText) {
		// The length argument is already the clamp we would generate —
		// the input is a previous pass's output; wrapping it again would
		// nest the ternary. Decline so Fix stays idempotent.
		return &buflen.Failure{Reason: buflen.FailAlreadyClamped}
	}

	if id, ok := cast.Unparen(lenArg).(*cast.Ident); ok && id.Sym != nil && t.usedAfter(c, id) {
		// Option 1: length is used by later statements; assign the clamp
		// so subsequent uses (e.g. null-termination at dst[len]) see the
		// truncated count.
		clamp := fmt.Sprintf("%s = %s > %s ? %s : %s;",
			id.Name, sizeText, lenText, lenText, sizeText)
		if t.precededBy(c, clamp) {
			// A previous pass already inserted this exact clamp right
			// before the call.
			return &buflen.Failure{Reason: buflen.FailAlreadyClamped}
		}
		indent := t.indentOf(c.stmt.Extent())
		assign := clamp + "\n" + indent
		if !c.inBlock {
			// Brace-less branch arm: keep the clamp and the call under
			// the same guard.
			edits.Add(edit.Insert(c.stmt.Extent().Pos, "{ "+assign))
			edits.Add(edit.Insert(c.stmt.Extent().End, " }"))
			return nil
		}
		edits.Add(edit.Insert(c.stmt.Extent().Pos, assign))
		return nil
	}
	// Option 2: replace the parameter with the clamping ternary, which
	// spells the length twice.
	if hasSideEffect(lenArg) {
		return &buflen.Failure{Reason: buflen.FailLengthEffect, Detail: lenText}
	}
	tern := fmt.Sprintf("%s > %s ? %s : %s", sizeText, lenText, lenText, sizeText)
	edits.Add(edit.Replace(lenArg.Extent(), tern))
	return nil
}

// hasSideEffect reports whether evaluating e may change program state:
// it assigns, increments or decrements, or calls a function other than
// strlen. The catalog's no-effect mark is not enough: rand, getchar and
// printf carry it.
func hasSideEffect(e cast.Expr) bool {
	effect := false
	cast.Inspect(e, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.AssignExpr, *cast.PostfixExpr:
			effect = true
		case *cast.UnaryExpr:
			effect = effect || x.Op == cast.UnaryPreInc || x.Op == cast.UnaryPreDec
		case *cast.CallExpr:
			effect = effect || x.Callee() != "strlen"
		}
		return !effect
	})
	return effect
}

// clampedBy reports whether expr is exactly the clamping ternary
// editMemcpy generates for size: "size > n ? n : size" for some n.
func clampedBy(expr, size string) bool {
	rest, ok := strings.CutPrefix(expr, size+" > ")
	if !ok {
		return false
	}
	rest, ok = strings.CutSuffix(rest, " : "+size)
	if !ok {
		return false
	}
	// What remains must be "n ? n" with both halves identical (n may
	// itself contain ternaries, so split at the middle, not the first
	// "?").
	if len(rest) < 5 || len(rest)%2 == 0 {
		return false
	}
	mid := (len(rest) - 3) / 2
	return rest[mid:mid+3] == " ? " && rest[:mid] == rest[mid+3:]
}

// precededBy reports whether the candidate's enclosing statement is
// immediately preceded (up to whitespace and an opening brace) by the
// given text — used to recognize a clamp assignment inserted by a
// previous pass.
func (t *Transformer) precededBy(c candidate, text string) bool {
	src := t.unit.File.Src()
	before := strings.TrimRight(string(src[:c.stmt.Extent().Pos]), " \t\n{")
	return strings.HasSuffix(before, text)
}

// usedAfter reports whether the identifier's symbol is referenced after
// the candidate's enclosing statement ("used in statements that are
// successors in control flow"; source order over the function body is the
// conservative approximation for the structured-control corpora).
func (t *Transformer) usedAfter(c candidate, id *cast.Ident) bool {
	after := c.stmt.Extent().End
	used := false
	cast.Inspect(c.fn.Body, func(n cast.Node) bool {
		if used {
			return false
		}
		if use, ok := n.(*cast.Ident); ok && use.Sym == id.Sym && use.Extent().Pos >= after {
			used = true
		}
		return true
	})
	return used
}

// text returns the source spelling of a node.
func (t *Transformer) text(n cast.Node) string {
	return t.unit.File.Slice(n.Extent())
}

// indentOf returns the whitespace prefix of the line the extent starts on.
func (t *Transformer) indentOf(e ctoken.Extent) string {
	src := t.unit.File.Src()
	lineStart := int(e.Pos)
	for lineStart > 0 && src[lineStart-1] != '\n' {
		lineStart--
	}
	end := lineStart
	for end < len(src) && (src[end] == ' ' || src[end] == '\t') {
		end++
	}
	return src[lineStart:end]
}

// freshName returns base if unused in the unit, otherwise base_2, base_3…
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
