// Package buflen implements Algorithm 1 of the paper (GETBUFFERLENGTH,
// Section III-B): a static, source-level computation of the size of a
// destination buffer expression, built on type analysis, alias analysis,
// reaching definitions and control-flow analysis.
//
// The result is symbolic: a C expression that evaluates the size at run
// time (`sizeof(buf)` for statically allocated buffers,
// `malloc_usable_size(p)` for heap-allocated ones), optionally adjusted by
// a constant when the destination involves pointer arithmetic. When the
// size cannot be established, the algorithm returns a typed failure whose
// reason matches the taxonomy of Section IV-B (the four observed SLR
// precondition-failure classes).
package buflen

import (
	"fmt"
	"strconv"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/ctype"
	"repro/internal/dataflow"
	"repro/internal/pointsto"
)

// SizeKind identifies how the size is obtained at run time.
type SizeKind int

// Size kinds.
const (
	SizeInvalid SizeKind = iota
	// SizeStatic: the buffer is statically allocated; size via sizeof.
	SizeStatic
	// SizeHeap: the buffer is heap allocated; size via malloc_usable_size.
	SizeHeap
)

// Size is a symbolic buffer size.
type Size struct {
	Kind SizeKind
	// BaseText is the source spelling of the expression the size operator
	// applies to (e.g. "buf" yielding "sizeof(buf)").
	BaseText string
	// Adjust is a constant correction accumulated from pointer arithmetic:
	// strcpy(p+2, s) writes into a region 2 bytes smaller.
	Adjust int64
	// ConstBytes is the statically known byte count when available
	// (array types with constant length), or -1.
	ConstBytes int64
}

// KnownBytes returns the statically known byte count of the region the
// size describes (ConstBytes corrected by the pointer-arithmetic Adjust),
// and whether it is known at all. Heap sizes and symbolic static sizes
// report false.
func (s Size) KnownBytes() (int64, bool) {
	if s.ConstBytes < 0 {
		return 0, false
	}
	n := s.ConstBytes + s.Adjust
	if n < 0 {
		n = 0
	}
	return n, true
}

// CText renders the size as a C expression.
func (s Size) CText() string {
	var base string
	switch s.Kind {
	case SizeStatic:
		base = "sizeof(" + s.BaseText + ")"
	case SizeHeap:
		base = "malloc_usable_size(" + s.BaseText + ")"
	default:
		return ""
	}
	switch {
	case s.Adjust > 0:
		return base + " + " + strconv.FormatInt(s.Adjust, 10)
	case s.Adjust < 0:
		return base + " - " + strconv.FormatInt(-s.Adjust, 10)
	default:
		return base
	}
}

// FailReason classifies why the size could not be computed. The first four
// reasons are exactly the classes reported in Section IV-B.
type FailReason int

// Failure reasons.
const (
	FailUnknown FailReason = iota
	// FailNoHeapAlloc: the reaching definition does not contain an
	// explicit heap allocation (buffer allocated elsewhere or passed as a
	// parameter). Section IV-B class (1), the most common.
	FailNoHeapAlloc
	// FailAliased: the buffer (or its containing struct) is aliased.
	// Section IV-B class (2).
	FailAliased
	// FailArrayOfBuffers: the buffer is an element of an array of buffers;
	// no shape analysis. Section IV-B class (3).
	FailArrayOfBuffers
	// FailTernaryAlloc: the definition is a ternary with heap allocation
	// in its branches. Section IV-B class (4).
	FailTernaryAlloc
	// FailMultipleDefs: more than one definition reaches the use.
	FailMultipleDefs
	// FailNoDef: no definition reaches the use (or only a declaration
	// without a value).
	FailNoDef
	// FailStructRedefined: the whole struct is redefined between the
	// member's definition and its use (Algorithm 1 lines 42-46).
	FailStructRedefined
	// FailUnsupportedForm: the expression shape is outside Algorithm 1.
	FailUnsupportedForm
	// FailAlreadyClamped: the length argument (or a preceding
	// assignment) already carries the exact clamp SLR would insert —
	// the input is previously transformed output, and clamping again
	// would nest the ternary. Declining keeps Fix idempotent.
	FailAlreadyClamped
	// FailMacroOrHeader: project mode only — the textual edit maps into
	// a macro expansion or an included header, where an in-place rewrite
	// of the main file would corrupt the source the user wrote.
	FailMacroOrHeader
	// FailValueUsed: the program uses the call's value and the
	// replacement returns a length or an errno_t, not a pointer, or the
	// replacement keeps a newline that is stripped only after the
	// statement that reads the value (fgets in a condition).
	// Appended last to keep serialized values stable.
	FailValueUsed
	// FailLengthEffect: the memcpy length assigns, increments or calls
	// a function other than strlen, and the clamping ternary would
	// evaluate it twice. Appended last to keep serialized values stable.
	FailLengthEffect
)

var _failNames = map[FailReason]string{
	FailUnknown:         "unknown",
	FailMacroOrHeader:   "rewrite target inside a macro expansion or included header",
	FailNoHeapAlloc:     "definition has no explicit heap allocation",
	FailAliased:         "buffer is aliased",
	FailArrayOfBuffers:  "buffer is an element of an array of buffers",
	FailTernaryAlloc:    "definition is a ternary expression with allocations",
	FailMultipleDefs:    "multiple definitions reach the use",
	FailNoDef:           "no defining value reaches the use",
	FailStructRedefined: "containing struct redefined before use",
	FailUnsupportedForm: "unsupported expression form",
	FailAlreadyClamped:  "length already clamped by a previous transformation",
	FailValueUsed:       "call's value is used and the replacement may return a different value",
	FailLengthEffect:    "length has a side effect the clamp would repeat",
}

// String returns the reason description.
func (r FailReason) String() string { return _failNames[r] }

// Failure is a typed "size unknown" result.
type Failure struct {
	Reason FailReason
	Detail string
}

// Error implements the error interface.
func (f *Failure) Error() string {
	if f.Detail == "" {
		return f.Reason.String()
	}
	return fmt.Sprintf("%s: %s", f.Reason, f.Detail)
}

// Facts is the subset of shared analysis facts the buffer-length
// computation consumes. *analysis.Snapshot implements it; the interface
// exists only so this package need not import internal/analysis, which
// imports it.
type Facts interface {
	CFG(fn *cast.FuncDef) *cfg.Graph
	Reaching(fn *cast.FuncDef) *dataflow.ReachingDefs
	Aliases() *pointsto.AliasSets
}

// Analyzer computes buffer lengths within one translation unit, consuming
// per-function CFGs and reaching-definition solutions plus the unit-wide
// alias sets from its Facts provider.
type Analyzer struct {
	unit  *cast.TranslationUnit
	facts Facts
}

// NewAnalyzer prepares an analyzer on the unit's shared facts, where
// points-to, CFGs and reaching definitions are computed once per
// translation unit and reused by every client. The unit must already be
// type-checked (internal/typecheck).
func NewAnalyzer(unit *cast.TranslationUnit, facts Facts) *Analyzer {
	return &Analyzer{unit: unit, facts: facts}
}

// BufferLength computes the size of the destination-buffer expression b
// occurring inside fn, implementing Algorithm 1. The evaluation point is
// located from b's source extent.
func (a *Analyzer) BufferLength(fn *cast.FuncDef, b cast.Expr) (Size, *Failure) {
	g := a.facts.CFG(fn)
	at := g.NodeContaining(b)
	if at == nil {
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "expression not in control flow"}
	}
	return a.lengthAt(fn, at, b, 0)
}

const _maxDepth = 32 // defensive bound on definition-chain recursion

// lengthAt is the recursive core of Algorithm 1. at is the program point
// whose reaching definitions are consulted for identifiers.
func (a *Analyzer) lengthAt(fn *cast.FuncDef, at *cfg.Node, b cast.Expr, depth int) (Size, *Failure) {
	if depth > _maxDepth {
		return Size{}, &Failure{Reason: FailUnknown, Detail: "definition chain too deep"}
	}
	switch x := cast.Unparen(b).(type) {

	// Lines 2-4: assignment expression — recurse on the RHS.
	case *cast.AssignExpr:
		if x.Op != cast.AssignPlain {
			return a.compoundAssignLength(fn, at, x, depth)
		}
		return a.lengthAt(fn, at, x.RHS, depth+1)

	// Lines 5-7: array access expression — size of the array identifier.
	case *cast.IndexExpr:
		return a.indexLength(fn, at, x, depth)

	// Lines 8-15: pointer-arithmetic binary expression.
	case *cast.BinaryExpr:
		return a.binaryLength(fn, at, x, depth)

	// Lines 16-20: prefix increment/decrement.
	case *cast.UnaryExpr:
		switch x.Op {
		case cast.UnaryPreInc:
			sz, fail := a.lengthAt(fn, at, x.Operand, depth+1)
			if fail != nil {
				return Size{}, fail
			}
			sz.Adjust--
			return sz, nil
		case cast.UnaryPreDec:
			sz, fail := a.lengthAt(fn, at, x.Operand, depth+1)
			if fail != nil {
				return Size{}, fail
			}
			sz.Adjust++
			return sz, nil
		case cast.UnaryAddrOf:
			// &buf[i] and &s.f destinations: natural extension of lines
			// 5-7 (Juliet uses these forms heavily).
			return a.addrOfLength(fn, at, x, depth)
		case cast.UnaryDeref:
			// *p as a destination is a single char; not a buffer.
			return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "dereference destination"}
		default:
			return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "unary " + x.Op.String()}
		}

	// Postfix p++ in destination position: the written-to region starts at
	// the pre-increment value, so no adjustment is needed.
	case *cast.PostfixExpr:
		return a.lengthAt(fn, at, x.Operand, depth+1)

	// Lines 21-22: cast expression.
	case *cast.CastExpr:
		return a.lengthAt(fn, at, x.Operand, depth+1)

	// Lines 23-34: identifier expression.
	case *cast.Ident:
		return a.identLength(fn, at, x, depth)

	// Lines 35-50: element (struct member) access expression.
	case *cast.MemberExpr:
		return a.memberLength(fn, at, x, depth)

	case *cast.CallExpr:
		// A call in destination position: heap allocators give a usable
		// size via their own result; others are opaque.
		if pointsto.IsHeapAllocator(x.Callee()) {
			return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "allocation used directly as destination"}
		}
		return Size{}, &Failure{Reason: FailNoHeapAlloc, Detail: "destination produced by call"}

	case *cast.CondExpr:
		return Size{}, a.ternaryFailure(x)

	case *cast.StringLit:
		// Writing into a string literal is UB; refuse.
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "string literal destination"}

	default:
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: fmt.Sprintf("%T", b)}
	}
}

// compoundAssignLength handles p += n / p -= n definitions and
// destinations: the size is the size of p before the operation, adjusted.
func (a *Analyzer) compoundAssignLength(fn *cast.FuncDef, at *cfg.Node, x *cast.AssignExpr, depth int) (Size, *Failure) {
	var sign int64
	switch x.Op {
	case cast.AssignAdd:
		sign = -1
	case cast.AssignSub:
		sign = +1
	default:
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "compound assignment " + x.Op.String()}
	}
	n, ok := cparse.ConstIntValue(x.RHS)
	if !ok {
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "non-constant pointer adjustment"}
	}
	sz, fail := a.lengthAt(fn, at, x.LHS, depth+1)
	if fail != nil {
		return Size{}, fail
	}
	sz.Adjust += sign * n
	return sz, nil
}

// indexLength implements lines 5-7 with the shape-analysis restriction:
// an element of an array of pointers fails (Section IV-B class 3); an
// element of a 2-D char array sizes the row.
func (a *Analyzer) indexLength(fn *cast.FuncDef, at *cfg.Node, x *cast.IndexExpr, depth int) (Size, *Failure) {
	baseT := cast.Unparen(x.Base).Type()
	if baseT != nil {
		if elem := ctype.Elem(baseT); elem != nil {
			if ctype.IsPointer(elem) {
				return Size{}, &Failure{
					Reason: FailArrayOfBuffers,
					Detail: "no shape analysis on arrays of buffers",
				}
			}
			if ctype.IsArray(elem) {
				// 2-D array: sizeof one row, spelled with the full access.
				return Size{
					Kind:       SizeStatic,
					BaseText:   a.text(x),
					ConstBytes: int64(elem.Size()),
				}, nil
			}
		}
	}
	// GETARRAYIDENTIFIER: size of the underlying array object.
	if id, ok := cast.Unparen(x.Base).(*cast.Ident); ok && id.Sym != nil {
		if ctype.IsArray(id.Sym.Type) {
			return a.staticSize(id)
		}
		// Pointer base: recurse as identifier (pointer into a buffer).
		return a.identLength(fn, at, id, depth)
	}
	return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "array access on non-identifier"}
}

// addrOfLength handles &buf[i], &s.f and &buf destinations.
func (a *Analyzer) addrOfLength(fn *cast.FuncDef, at *cfg.Node, x *cast.UnaryExpr, depth int) (Size, *Failure) {
	switch inner := cast.Unparen(x.Operand).(type) {
	case *cast.IndexExpr:
		sz, fail := a.indexLength(fn, at, inner, depth)
		if fail != nil {
			return Size{}, fail
		}
		if n, ok := cparse.ConstIntValue(inner.Index); ok {
			sz.Adjust -= n
			return sz, nil
		}
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "non-constant index in address-of"}
	case *cast.Ident:
		// &buf where buf is an array covers the whole object.
		if inner.Sym != nil && ctype.IsArray(inner.Sym.Type) {
			return a.staticSize(inner)
		}
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "address of non-array"}
	case *cast.MemberExpr:
		return a.memberLength(fn, at, inner, depth)
	default:
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "address-of form"}
	}
}

// binaryLength implements lines 8-15: buffer ± numeric.
func (a *Analyzer) binaryLength(fn *cast.FuncDef, at *cfg.Node, x *cast.BinaryExpr, depth int) (Size, *Failure) {
	if x.Op != cast.BinaryAdd && x.Op != cast.BinarySub {
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "binary " + x.Op.String()}
	}
	// GETNUMERICPART / GETBUFFERPART.
	var (
		bufPart cast.Expr
		numVal  int64
	)
	if n, ok := cparse.ConstIntValue(x.Y); ok {
		bufPart, numVal = x.X, n
	} else if n, ok := cparse.ConstIntValue(x.X); ok && x.Op == cast.BinaryAdd {
		bufPart, numVal = x.Y, n
	} else {
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "non-constant pointer arithmetic"}
	}
	sz, fail := a.lengthAt(fn, at, bufPart, depth+1)
	if fail != nil {
		return Size{}, fail
	}
	// Line 11: newop is the flipped operator — advancing the pointer
	// shrinks the writable region.
	if x.Op == cast.BinaryAdd {
		sz.Adjust -= numVal
	} else {
		sz.Adjust += numVal
	}
	return sz, nil
}

// identLength implements lines 23-34.
func (a *Analyzer) identLength(fn *cast.FuncDef, at *cfg.Node, x *cast.Ident, depth int) (Size, *Failure) {
	if x.Sym == nil {
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "unbound identifier"}
	}
	t := x.Sym.Type
	switch {
	// Lines 24-25: array type.
	case ctype.IsArray(t):
		return a.staticSize(x)

	// Lines 26-34: pointer type.
	case ctype.IsPointer(t):
		// Line 27: aliased pointers are refused.
		if a.facts.Aliases().IsAliased(x.Sym) {
			return Size{}, &Failure{Reason: FailAliased, Detail: x.Name}
		}
		// Parameters have no local definition: their storage is owned by
		// unknown call sites (Section IV-B class 1).
		if x.Sym.Kind == cast.SymParam {
			return Size{}, &Failure{Reason: FailNoHeapAlloc, Detail: "buffer is a parameter"}
		}
		// Line 30: the definition reaching B.
		rd := a.facts.Reaching(fn)
		defs := rd.ReachingFor(at, x.Sym)
		defs = wholeObjectDefs(defs)
		if len(defs) == 0 {
			return Size{}, &Failure{Reason: FailNoDef, Detail: x.Name}
		}
		if len(defs) > 1 {
			return Size{}, &Failure{Reason: FailMultipleDefs, Detail: x.Name}
		}
		return a.defLength(fn, x, defs[0], depth)

	default:
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "identifier of type " + typeText(t)}
	}
}

// defLength evaluates the size of ident given its unique reaching
// definition (lines 30-34 and 47-50).
func (a *Analyzer) defLength(fn *cast.FuncDef, ident *cast.Ident, def *dataflow.Def, depth int) (Size, *Failure) {
	switch def.Kind {
	case dataflow.DefDecl:
		return Size{}, &Failure{Reason: FailNoDef, Detail: ident.Name + " declared without a value"}
	case dataflow.DefCallOut, dataflow.DefAliasWrite:
		return Size{}, &Failure{Reason: FailNoHeapAlloc, Detail: "value set through a call or alias"}
	case dataflow.DefIncDec:
		// The definition itself is p++ / --p etc.: size of p before the
		// definition, adjusted.
		adj := int64(-1)
		switch v := def.Value.(type) {
		case *cast.UnaryExpr:
			if v.Op == cast.UnaryPreDec {
				adj = +1
			}
		case *cast.PostfixExpr:
			if v.Op == cast.PostfixDec {
				adj = +1
			}
		}
		sz, fail := a.lengthAt(fn, def.Node, ident, depth+1)
		if fail != nil {
			return Size{}, fail
		}
		sz.Adjust += adj
		return sz, nil
	case dataflow.DefInit, dataflow.DefAssign:
		value := def.Value
		if av, ok := value.(*cast.AssignExpr); ok {
			if av.Op != cast.AssignPlain {
				return a.compoundAssignLength(fn, def.Node, av, depth+1)
			}
			value = av.RHS
		}
		if value == nil {
			return Size{}, &Failure{Reason: FailNoDef, Detail: ident.Name}
		}
		// A conditional value is never a definite allocation (Section IV-B
		// class 4), so test it before the allocator check.
		if cond, ok := cast.Unparen(value).(*cast.CondExpr); ok {
			return Size{}, a.ternaryFailure(cond)
		}
		// Lines 31-32: definition containing a heap allocation.
		if callWithAllocator(value) {
			return Size{Kind: SizeHeap, BaseText: ident.Name, ConstBytes: -1}, nil
		}
		// Lines 33-34: other assignments recurse on the RHS, evaluated at
		// the definition's program point.
		return a.lengthAt(fn, def.Node, value, depth+1)
	default:
		return Size{}, &Failure{Reason: FailUnknown}
	}
}

// memberLength implements lines 35-50.
func (a *Analyzer) memberLength(fn *cast.FuncDef, at *cfg.Node, x *cast.MemberExpr, depth int) (Size, *Failure) {
	t := x.Type()
	switch {
	// Lines 36-37: array-typed member.
	case t != nil && ctype.IsArray(t):
		return Size{
			Kind:       SizeStatic,
			BaseText:   a.text(x),
			ConstBytes: int64(t.Size()),
		}, nil

	// Lines 38-50: pointer-typed member.
	case t != nil && ctype.IsPointer(t):
		baseID, ok := cast.Unparen(x.Base).(*cast.Ident)
		if !ok || baseID.Sym == nil {
			return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "member of non-identifier"}
		}
		// Line 39: under the paper's aggregate model the struct node
		// carries the aliasing; the field-sensitive ablation asks about
		// the member itself.
		if a.facts.Aliases().IsAliasedMember(baseID.Sym, x.Member) {
			return Size{}, &Failure{Reason: FailAliased, Detail: a.text(x)}
		}
		rd := a.facts.Reaching(fn)
		// Lines 42-46: member definitions are killed by whole-struct
		// redefinitions in the reaching-definitions transfer function, so
		// "defstruct on the control-flow path from def to B" manifests as
		// the member definition not reaching B.
		var memberDefs []*dataflow.Def
		for _, d := range rd.In(at) {
			if d.Sym == baseID.Sym && d.Member == x.Member {
				memberDefs = append(memberDefs, d)
			}
		}
		if len(memberDefs) == 0 {
			// Distinguish "struct redefined" from "never set".
			for _, d := range rd.In(at) {
				if d.Sym == baseID.Sym && d.Member == "" && d.Kind != dataflow.DefDecl {
					return Size{}, &Failure{Reason: FailStructRedefined, Detail: a.text(x)}
				}
			}
			return Size{}, &Failure{Reason: FailNoDef, Detail: a.text(x)}
		}
		if len(memberDefs) > 1 {
			return Size{}, &Failure{Reason: FailMultipleDefs, Detail: a.text(x)}
		}
		def := memberDefs[0]
		value := def.Value
		if av, ok := value.(*cast.AssignExpr); ok {
			value = av.RHS
		}
		if value == nil {
			return Size{}, &Failure{Reason: FailNoDef, Detail: a.text(x)}
		}
		if cond, ok := cast.Unparen(value).(*cast.CondExpr); ok {
			return Size{}, a.ternaryFailure(cond)
		}
		// Lines 47-48: heap allocation.
		if callWithAllocator(value) {
			return Size{Kind: SizeHeap, BaseText: a.text(x), ConstBytes: -1}, nil
		}
		// Lines 49-50: recurse on the assigned value.
		return a.lengthAt(fn, def.Node, value, depth+1)

	default:
		return Size{}, &Failure{Reason: FailUnsupportedForm, Detail: "member type"}
	}
}

// staticSize builds a SizeStatic for an array identifier.
func (a *Analyzer) staticSize(id *cast.Ident) (Size, *Failure) {
	cb := int64(-1)
	if id.Sym != nil {
		if s := id.Sym.Type.Size(); s >= 0 {
			cb = int64(s)
		}
	}
	return Size{Kind: SizeStatic, BaseText: id.Name, ConstBytes: cb}, nil
}

// ternaryFailure classifies a conditional definition (Section IV-B class 4
// when both branches allocate).
func (a *Analyzer) ternaryFailure(cond *cast.CondExpr) *Failure {
	if callWithAllocator(cond.Then) && callWithAllocator(cond.Else) {
		return &Failure{Reason: FailTernaryAlloc, Detail: a.text(cond)}
	}
	return &Failure{Reason: FailUnsupportedForm, Detail: "conditional value"}
}

// text returns the source spelling of an expression.
func (a *Analyzer) text(e cast.Expr) string {
	return a.unit.File.Slice(e.Extent())
}

// callWithAllocator reports whether the expression contains a call to a
// heap allocation function (the "def contains heap allocation" test of
// lines 31 and 47; allocation wrapped in casts or macros that expand to
// allocator calls still matches because the test is structural).
func callWithAllocator(e cast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	cast.Inspect(e, func(n cast.Node) bool {
		if c, ok := n.(*cast.CallExpr); ok && pointsto.IsHeapAllocator(c.Callee()) {
			found = true
			return false
		}
		// Do not descend into ternaries: a conditional allocation is not a
		// definite allocation (Section IV-B class 4).
		if _, ok := n.(*cast.CondExpr); ok && n != e {
			return false
		}
		return true
	})
	return found
}

// wholeObjectDefs filters to definitions of the whole object (Member ==
// ""), which are the ones Algorithm 1's identifier case consults.
func wholeObjectDefs(defs []*dataflow.Def) []*dataflow.Def {
	out := defs[:0:0]
	for _, d := range defs {
		if d.Member == "" {
			out = append(out, d)
		}
	}
	return out
}

func typeText(t ctype.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return t.String()
}
