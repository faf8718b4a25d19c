// Package cast defines the abstract syntax tree for the C subset handled by
// this repository.
//
// Every node carries a source Extent into the original text. The tree is
// deliberately close to the concrete syntax (parentheses are represented,
// declarations keep their declarator spellings) because the SLR and STR
// transformations must map analysis results back to exact source ranges.
package cast

import (
	"sort"
	"strconv"

	"repro/internal/ctoken"
	"repro/internal/ctype"
)

// Node is the interface implemented by all AST nodes.
type Node interface {
	// Extent returns the source byte range covered by the node.
	Extent() ctoken.Extent
}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
	// Type returns the computed C type of the expression, or nil before
	// type analysis has run.
	Type() ctype.Type
	// SetType records the computed type. It is called by the type checker.
	SetType(t ctype.Type)
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Decl is implemented by all declaration nodes.
type Decl interface {
	Node
	declNode()
}

// extent is the common embedded struct carrying source information.
type extent struct {
	Ext ctoken.Extent
}

// Extent returns the source range of the node.
func (e *extent) Extent() ctoken.Extent { return e.Ext }

// SetExtent records the source range. Used by the parser.
func (e *extent) SetExtent(x ctoken.Extent) { e.Ext = x }

func (e *extent) extentField() *ctoken.Extent { return &e.Ext }

// typedExpr is embedded in all expression nodes to carry the checked type.
type typedExpr struct {
	extent
	Typ ctype.Type
}

func (t *typedExpr) exprNode()             {}
func (t *typedExpr) Type() ctype.Type      { return t.Typ }
func (t *typedExpr) SetType(ty ctype.Type) { t.Typ = ty }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Ident is a use of a name in expression position.
type Ident struct {
	typedExpr
	Name string
	// Sym is filled by name binding with the referenced symbol, when
	// resolvable. It stays nil for implicitly declared functions.
	Sym *Symbol
}

// IntLit is an integer constant.
type IntLit struct {
	typedExpr
	Text  string // original spelling
	Value int64  // decoded value
}

// FloatLit is a floating constant.
type FloatLit struct {
	typedExpr
	Text  string
	Value float64
}

// CharLit is a character constant.
type CharLit struct {
	typedExpr
	Text  string // original spelling including quotes
	Value byte   // decoded value (first byte)
}

// StringLit is a string literal.
type StringLit struct {
	typedExpr
	Text  string // original spelling including quotes
	Value string // decoded contents without quotes
}

// ParenExpr is a parenthesized expression.
type ParenExpr struct {
	typedExpr
	Inner Expr
}

// UnaryOp enumerates prefix unary operators.
type UnaryOp int

// Prefix unary operators.
const (
	UnaryInvalid UnaryOp = iota
	UnaryAddrOf          // &x
	UnaryDeref           // *x
	UnaryPlus            // +x
	UnaryMinus           // -x
	UnaryNot             // !x
	UnaryBitNot          // ~x
	UnaryPreInc          // ++x
	UnaryPreDec          // --x
)

var _unaryNames = map[UnaryOp]string{
	UnaryAddrOf: "&", UnaryDeref: "*", UnaryPlus: "+", UnaryMinus: "-",
	UnaryNot: "!", UnaryBitNot: "~", UnaryPreInc: "++", UnaryPreDec: "--",
}

// String returns the operator's source spelling.
func (op UnaryOp) String() string { return _unaryNames[op] }

// UnaryExpr is a prefix unary operation.
type UnaryExpr struct {
	typedExpr
	Op      UnaryOp
	Operand Expr
}

// PostfixOp enumerates postfix operators.
type PostfixOp int

// Postfix operators.
const (
	PostfixInvalid PostfixOp = iota
	PostfixInc               // x++
	PostfixDec               // x--
)

// String returns the operator's source spelling.
func (op PostfixOp) String() string {
	switch op {
	case PostfixInc:
		return "++"
	case PostfixDec:
		return "--"
	default:
		return "?"
	}
}

// PostfixExpr is x++ or x--.
type PostfixExpr struct {
	typedExpr
	Op      PostfixOp
	Operand Expr
}

// BinaryOp enumerates binary operators (excluding assignment).
type BinaryOp int

// Binary operators.
const (
	BinaryInvalid BinaryOp = iota
	BinaryAdd              // +
	BinarySub              // -
	BinaryMul              // *
	BinaryDiv              // /
	BinaryRem              // %
	BinaryShl              // <<
	BinaryShr              // >>
	BinaryLt               // <
	BinaryGt               // >
	BinaryLe               // <=
	BinaryGe               // >=
	BinaryEq               // ==
	BinaryNe               // !=
	BinaryAnd              // &
	BinaryXor              // ^
	BinaryOr               // |
	BinaryLAnd             // &&
	BinaryLOr              // ||
)

var _binaryNames = map[BinaryOp]string{
	BinaryAdd: "+", BinarySub: "-", BinaryMul: "*", BinaryDiv: "/",
	BinaryRem: "%", BinaryShl: "<<", BinaryShr: ">>", BinaryLt: "<",
	BinaryGt: ">", BinaryLe: "<=", BinaryGe: ">=", BinaryEq: "==",
	BinaryNe: "!=", BinaryAnd: "&", BinaryXor: "^", BinaryOr: "|",
	BinaryLAnd: "&&", BinaryLOr: "||",
}

// String returns the operator's source spelling.
func (op BinaryOp) String() string { return _binaryNames[op] }

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	typedExpr
	Op   BinaryOp
	X, Y Expr
}

// AssignOp enumerates assignment operators.
type AssignOp int

// Assignment operators.
const (
	AssignInvalid AssignOp = iota
	AssignPlain            // =
	AssignAdd              // +=
	AssignSub              // -=
	AssignMul              // *=
	AssignDiv              // /=
	AssignRem              // %=
	AssignShl              // <<=
	AssignShr              // >>=
	AssignAnd              // &=
	AssignXor              // ^=
	AssignOr               // |=
)

var _assignNames = map[AssignOp]string{
	AssignPlain: "=", AssignAdd: "+=", AssignSub: "-=", AssignMul: "*=",
	AssignDiv: "/=", AssignRem: "%=", AssignShl: "<<=", AssignShr: ">>=",
	AssignAnd: "&=", AssignXor: "^=", AssignOr: "|=",
}

// String returns the operator's source spelling.
func (op AssignOp) String() string { return _assignNames[op] }

// AssignExpr is an assignment expression.
type AssignExpr struct {
	typedExpr
	Op  AssignOp
	LHS Expr
	RHS Expr
}

// CondExpr is the ternary conditional c ? t : f.
type CondExpr struct {
	typedExpr
	Cond Expr
	Then Expr
	Else Expr
}

// CallExpr is a function call.
type CallExpr struct {
	typedExpr
	Fun  Expr // usually *Ident
	Args []Expr
	// LParen/RParen are the extents of the parentheses; transformations
	// splice arguments relative to them.
	LParen ctoken.Extent
	RParen ctoken.Extent
}

// Callee returns the called function's name when the callee is a plain
// identifier, and "" otherwise.
func (c *CallExpr) Callee() string {
	if id, ok := Unparen(c.Fun).(*Ident); ok {
		return id.Name
	}
	return ""
}

// Arg returns the i-th argument, or nil when the call has no such
// argument.
func (c *CallExpr) Arg(i int) Expr {
	if i >= 0 && i < len(c.Args) {
		return c.Args[i]
	}
	return nil
}

// IndexExpr is array subscripting a[i].
type IndexExpr struct {
	typedExpr
	Base  Expr
	Index Expr
}

// MemberExpr is s.f or p->f.
type MemberExpr struct {
	typedExpr
	Base   Expr
	Member string
	Arrow  bool // true for ->, false for .
}

// CastExpr is (T)x.
type CastExpr struct {
	typedExpr
	ToType   ctype.Type
	TypeText string // original spelling of the type inside parens
	Operand  Expr
}

// SizeofExpr is sizeof expr or sizeof(T).
type SizeofExpr struct {
	typedExpr
	// Exactly one of Operand / OfType is set.
	Operand  Expr
	OfType   ctype.Type
	TypeText string // spelling when OfType is set
}

// CommaExpr is the comma operator x, y.
type CommaExpr struct {
	typedExpr
	X, Y Expr
}

// InitListExpr is a brace-enclosed initializer { a, b, c }.
type InitListExpr struct {
	typedExpr
	Elems []Expr
}

// Unparen strips any number of ParenExpr wrappers.
func Unparen(e Expr) Expr {
	for {
		p, ok := e.(*ParenExpr)
		if !ok {
			return e
		}
		e = p.Inner
	}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// ExprStmt is an expression statement.
type ExprStmt struct {
	extent
	X Expr
}

// DeclStmt wraps one or more declarations appearing in statement position.
type DeclStmt struct {
	extent
	Decls []*VarDecl
}

// CompoundStmt is a brace-enclosed block.
type CompoundStmt struct {
	extent
	Items []Stmt
	// LBrace/RBrace record the brace extents for insertion points.
	LBrace ctoken.Extent
	RBrace ctoken.Extent
}

// IfStmt is an if/else statement.
type IfStmt struct {
	extent
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is a while loop.
type WhileStmt struct {
	extent
	Cond Expr
	Body Stmt
}

// DoWhileStmt is a do/while loop.
type DoWhileStmt struct {
	extent
	Body Stmt
	Cond Expr
}

// ForStmt is a for loop. Init may be a *DeclStmt or *ExprStmt or nil.
type ForStmt struct {
	extent
	Init Stmt // nil, *ExprStmt, or *DeclStmt
	Cond Expr // may be nil
	Post Expr // may be nil
	Body Stmt
}

// ReturnStmt is a return statement.
type ReturnStmt struct {
	extent
	Result Expr // may be nil
}

// BreakStmt is a break statement.
type BreakStmt struct{ extent }

// ContinueStmt is a continue statement.
type ContinueStmt struct{ extent }

// GotoStmt is a goto statement.
type GotoStmt struct {
	extent
	Label string
}

// LabeledStmt is label: stmt.
type LabeledStmt struct {
	extent
	Label string
	Stmt  Stmt
}

// SwitchStmt is a switch statement.
type SwitchStmt struct {
	extent
	Tag  Expr
	Body Stmt // normally *CompoundStmt containing CaseStmt items
}

// CaseStmt is a case or default label with its statement.
type CaseStmt struct {
	extent
	Value Expr // nil for default:
	Stmt  Stmt // may be nil for consecutive labels
}

// NullStmt is a lone semicolon.
type NullStmt struct{ extent }

func (*ExprStmt) stmtNode()     {}
func (*DeclStmt) stmtNode()     {}
func (*CompoundStmt) stmtNode() {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*GotoStmt) stmtNode()     {}
func (*LabeledStmt) stmtNode()  {}
func (*SwitchStmt) stmtNode()   {}
func (*CaseStmt) stmtNode()     {}
func (*NullStmt) stmtNode()     {}

// ---------------------------------------------------------------------------
// Declarations and symbols
// ---------------------------------------------------------------------------

// StorageClass enumerates C storage class specifiers.
type StorageClass int

// Storage classes.
const (
	StorageNone StorageClass = iota
	StorageTypedef
	StorageExtern
	StorageStatic
	StorageAuto
	StorageRegister
)

// SymbolKind classifies what a symbol names.
type SymbolKind int

// Symbol kinds.
const (
	SymInvalid   SymbolKind = iota
	SymVar                  // object (local or global)
	SymFunc                 // function
	SymTypedef              // typedef name
	SymEnumConst            // enumeration constant
	SymParam                // function parameter
)

// Symbol is a named program entity produced by name binding.
type Symbol struct {
	Name    string
	Kind    SymbolKind
	Type    ctype.Type
	Storage StorageClass
	// Decl points at the introducing declaration node (a *VarDecl for
	// objects/params, *FuncDef for defined functions), or nil for
	// implicit/builtin symbols.
	Decl Node
	// IsGlobal reports file-scope declarations.
	IsGlobal bool
	// ID is a unique, dense index assigned per translation unit; analyses
	// use it to key bitsets.
	ID int
}

// VarDecl declares a single object (one declarator of a declaration).
type VarDecl struct {
	extent
	Name    string
	Type    ctype.Type
	Storage StorageClass
	Init    Expr // may be nil
	// NameExtent covers just the declarator's identifier.
	NameExtent ctoken.Extent
	// Sym is the symbol introduced by this declarator.
	Sym *Symbol
	// Global reports file-scope declarations.
	Global bool
}

// ParamDecl is a function parameter declaration.
type ParamDecl struct {
	extent
	Name string // may be "" for unnamed parameters
	Type ctype.Type
	Sym  *Symbol
}

// FuncDef is a function definition with a body.
type FuncDef struct {
	extent
	Name       string
	Type       *ctype.Func
	Params     []*ParamDecl
	Body       *CompoundStmt
	Storage    StorageClass
	NameExtent ctoken.Extent
	Sym        *Symbol
	Variadic   bool
}

// RecordDecl declares a struct or union type at file or block scope.
type RecordDecl struct {
	extent
	Record *ctype.Record
}

// TypedefDecl introduces a typedef name.
type TypedefDecl struct {
	extent
	Name string
	Type ctype.Type
	Sym  *Symbol
}

// EnumDecl declares an enum type.
type EnumDecl struct {
	extent
	Enum *ctype.Enum
}

// MultiDecl groups several declarators from one file-scope declaration
// (e.g. "int a, b;").
type MultiDecl struct {
	extent
	Decls []*VarDecl
}

func (*VarDecl) declNode()     {}
func (*MultiDecl) declNode()   {}
func (*ParamDecl) declNode()   {}
func (*FuncDef) declNode()     {}
func (*RecordDecl) declNode()  {}
func (*TypedefDecl) declNode() {}
func (*EnumDecl) declNode()    {}

// TranslationUnit is the root of a parsed file.
type TranslationUnit struct {
	extent
	File  *ctoken.File
	Decls []Decl
	// Funcs lists the function definitions in declaration order.
	Funcs []*FuncDef
	// Symbols lists all symbols bound in the unit, indexed by Symbol.ID.
	Symbols []*Symbol
	// Bodies[i] is the range of Symbol.IDs bound inside Funcs[i]'s body;
	// the IDs of its parameters come just before it.
	Bodies []SymRange
	// Tags logs the struct, union and enum tags bound at file scope, in
	// the order the parse bound them. With Symbols and Bodies it is
	// enough to rebuild the file scope as it stood at the start of any
	// function body.
	Tags []TagBinding
}

// Names hands out identifiers for code a transformation inserts into a
// unit: names no symbol of the unit and no earlier Fresh call uses. The
// unit's symbols are read on the first call.
type Names struct {
	unit *TranslationUnit
	used map[string]struct{}
}

// NewNames returns the fresh-name set of tu.
func NewNames(tu *TranslationUnit) Names { return Names{unit: tu} }

// Fresh returns base if it is unused, otherwise base_2, base_3…
func (n *Names) Fresh(base string) string {
	if n.used == nil {
		n.used = make(map[string]struct{}, len(n.unit.Symbols))
		for _, s := range n.unit.Symbols {
			n.used[s.Name] = struct{}{}
		}
	}
	if _, taken := n.used[base]; !taken {
		n.used[base] = struct{}{}
		return base
	}
	for i := 2; ; i++ {
		name := base + "_" + strconv.Itoa(i)
		if _, taken := n.used[name]; !taken {
			n.used[name] = struct{}{}
			return name
		}
	}
}

// SymRange is the half-open range [Lo, Hi) of Symbol.IDs.
type SymRange struct{ Lo, Hi int }

// TagBinding is one file-scope binding of a tag ("struct S", "union U"
// or "enum E") to its type.
type TagBinding struct {
	Key  string
	Type ctype.Type
	// Funcs is the number of function definitions the parse had
	// finished when it made the binding.
	Funcs int
	// Def marks the definition of a record: the binding after which its
	// members are known.
	Def bool
}

func (*TranslationUnit) declNode() {}

// FuncIndexAt returns the index in Funcs of the function definition
// whose extent contains offset p, or -1. Funcs are in source order with
// disjoint extents, so the lookup is a binary search.
func (tu *TranslationUnit) FuncIndexAt(p ctoken.Pos) int {
	i := sort.Search(len(tu.Funcs), func(i int) bool { return tu.Funcs[i].Extent().End > p })
	if i < len(tu.Funcs) && tu.Funcs[i].Extent().Pos <= p {
		return i
	}
	return -1
}

// FuncAt returns the function definition whose extent contains offset p,
// or nil.
func (tu *TranslationUnit) FuncAt(p ctoken.Pos) *FuncDef {
	if i := tu.FuncIndexAt(p); i >= 0 {
		return tu.Funcs[i]
	}
	return nil
}

// FuncNamed returns the function definition with the given name, or nil.
func (tu *TranslationUnit) FuncNamed(name string) *FuncDef {
	for _, f := range tu.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}
