// Package ctype models the C type system used by the analyses and
// transformations: basic types, pointers, arrays, functions, records
// (struct/union) and enums, with a concrete size model matching a 64-bit
// LP64 target (the environment the paper evaluated on).
package ctype

import (
	"fmt"
	"strings"
)

// Type is implemented by all C types.
type Type interface {
	// String renders the type approximately as C source.
	String() string
	// Size returns the object size in bytes, or -1 when unknown (e.g.
	// incomplete arrays, void, functions).
	Size() int
	typeNode()
}

// BasicKind enumerates the built-in scalar types.
type BasicKind int

// Basic type kinds. Enums start at one; the zero value is invalid.
const (
	Invalid BasicKind = iota
	Void
	Bool
	Char
	SChar
	UChar
	Short
	UShort
	Int
	UInt
	Long
	ULong
	LongLong
	ULongLong
	Float
	Double
	LongDouble
)

var _basicInfo = map[BasicKind]struct {
	name string
	size int
}{
	Invalid:    {"<invalid>", -1},
	Void:       {"void", -1},
	Bool:       {"_Bool", 1},
	Char:       {"char", 1},
	SChar:      {"signed char", 1},
	UChar:      {"unsigned char", 1},
	Short:      {"short", 2},
	UShort:     {"unsigned short", 2},
	Int:        {"int", 4},
	UInt:       {"unsigned int", 4},
	Long:       {"long", 8},
	ULong:      {"unsigned long", 8},
	LongLong:   {"long long", 8},
	ULongLong:  {"unsigned long long", 8},
	Float:      {"float", 4},
	Double:     {"double", 8},
	LongDouble: {"long double", 16},
}

// Basic is a built-in scalar type.
type Basic struct {
	Kind BasicKind
}

func (b *Basic) typeNode() {}

// String renders the type name.
func (b *Basic) String() string { return _basicInfo[b.Kind].name }

// Size returns the LP64 size of the type in bytes.
func (b *Basic) Size() int { return _basicInfo[b.Kind].size }

// IsInteger reports whether the type is an integer type (including char
// and _Bool).
func (b *Basic) IsInteger() bool {
	switch b.Kind {
	case Bool, Char, SChar, UChar, Short, UShort, Int, UInt, Long, ULong, LongLong, ULongLong:
		return true
	default:
		return false
	}
}

// IsFloat reports whether the type is a floating-point type.
func (b *Basic) IsFloat() bool {
	switch b.Kind {
	case Float, Double, LongDouble:
		return true
	default:
		return false
	}
}

// Shared singleton instances for the common basics. Types are immutable so
// sharing is safe.
var (
	VoidType      = &Basic{Kind: Void}
	BoolType      = &Basic{Kind: Bool}
	CharType      = &Basic{Kind: Char}
	SCharType     = &Basic{Kind: SChar}
	UCharType     = &Basic{Kind: UChar}
	ShortType     = &Basic{Kind: Short}
	UShortType    = &Basic{Kind: UShort}
	IntType       = &Basic{Kind: Int}
	UIntType      = &Basic{Kind: UInt}
	LongType      = &Basic{Kind: Long}
	ULongType     = &Basic{Kind: ULong}
	LongLongType  = &Basic{Kind: LongLong}
	ULongLongType = &Basic{Kind: ULongLong}
	FloatType     = &Basic{Kind: Float}
	DoubleType    = &Basic{Kind: Double}
	SizeTType     = ULongType // size_t on LP64
)

// Pointer is a pointer type.
type Pointer struct {
	Elem Type
}

func (p *Pointer) typeNode() {}

// String renders the pointer type.
func (p *Pointer) String() string { return p.Elem.String() + " *" }

// Size returns the pointer size (8 on LP64).
func (p *Pointer) Size() int { return 8 }

// PointerTo returns a pointer type to elem.
func PointerTo(elem Type) *Pointer { return &Pointer{Elem: elem} }

// Array is an array type. Len < 0 means the length is unknown (incomplete
// array, e.g. a parameter declared T a[]).
type Array struct {
	Elem Type
	Len  int
}

func (a *Array) typeNode() {}

// String renders the array type.
func (a *Array) String() string {
	if a.Len < 0 {
		return a.Elem.String() + " []"
	}
	return fmt.Sprintf("%s [%d]", a.Elem.String(), a.Len)
}

// Size returns the total array size in bytes, or -1 when incomplete.
func (a *Array) Size() int {
	if a.Len < 0 {
		return -1
	}
	es := a.Elem.Size()
	if es < 0 {
		return -1
	}
	return es * a.Len
}

// ArrayOf returns an array type of n elements of elem.
func ArrayOf(elem Type, n int) *Array { return &Array{Elem: elem, Len: n} }

// Func is a function type.
type Func struct {
	Result   Type
	Params   []Type
	Variadic bool
}

func (f *Func) typeNode() {}

// String renders the function type.
func (f *Func) String() string {
	var sb strings.Builder
	sb.WriteString(f.Result.String())
	sb.WriteString(" (")
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.String())
	}
	if f.Variadic {
		if len(f.Params) > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("...")
	}
	sb.WriteString(")")
	return sb.String()
}

// Size returns -1; functions are not objects.
func (f *Func) Size() int { return -1 }

// Field is a member of a record type.
type Field struct {
	Name   string
	Type   Type
	Offset int // byte offset within the record
}

// Record is a struct or union type.
type Record struct {
	Tag     string // may be "" for anonymous records
	IsUnion bool
	Fields  []Field
	// Complete is false for forward declarations (struct S;).
	Complete bool
	size     int
}

func (r *Record) typeNode() {}

// String renders the record type.
func (r *Record) String() string {
	kw := "struct"
	if r.IsUnion {
		kw = "union"
	}
	if r.Tag != "" {
		return kw + " " + r.Tag
	}
	return kw + " <anonymous>"
}

// Size returns the record size in bytes, or -1 when incomplete.
func (r *Record) Size() int {
	if !r.Complete {
		return -1
	}
	return r.size
}

// FieldNamed returns the field with the given name and true, or a zero
// Field and false.
func (r *Record) FieldNamed(name string) (Field, bool) {
	for _, f := range r.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// SetFields completes the record with the given members, computing offsets
// with natural alignment (struct) or overlay (union).
func (r *Record) SetFields(fields []Field) {
	r.Fields = fields
	r.Complete = true
	if r.IsUnion {
		maxSize := 0
		for i := range r.Fields {
			r.Fields[i].Offset = 0
			if s := r.Fields[i].Type.Size(); s > maxSize {
				maxSize = s
			}
		}
		r.size = maxSize
		return
	}
	off := 0
	maxAlign := 1
	for i := range r.Fields {
		a := alignOf(r.Fields[i].Type)
		if a > maxAlign {
			maxAlign = a
		}
		off = roundUp(off, a)
		r.Fields[i].Offset = off
		s := r.Fields[i].Type.Size()
		if s < 0 {
			s = 0
		}
		off += s
	}
	r.size = roundUp(off, maxAlign)
}

func alignOf(t Type) int {
	switch x := t.(type) {
	case *Basic:
		if s := x.Size(); s > 0 {
			return s
		}
		return 1
	case *Pointer:
		return 8
	case *Array:
		return alignOf(x.Elem)
	case *Record:
		a := 1
		for _, f := range x.Fields {
			if fa := alignOf(f.Type); fa > a {
				a = fa
			}
		}
		return a
	case *Enum:
		return 4
	default:
		return 1
	}
}

func roundUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// Enum is an enumeration type.
type Enum struct {
	Tag    string
	Consts []EnumConst
}

// EnumConst is one enumerator.
type EnumConst struct {
	Name  string
	Value int64
}

func (e *Enum) typeNode() {}

// String renders the enum type.
func (e *Enum) String() string {
	if e.Tag != "" {
		return "enum " + e.Tag
	}
	return "enum <anonymous>"
}

// Size returns the enum size (int-sized).
func (e *Enum) Size() int { return 4 }

// Named is a typedef-introduced alias. Analyses usually look through it via
// Unqualify.
type Named struct {
	Name       string
	Underlying Type
}

func (n *Named) typeNode() {}

// String renders the typedef name.
func (n *Named) String() string { return n.Name }

// Size returns the underlying type's size.
func (n *Named) Size() int { return n.Underlying.Size() }

// Hole is a placeholder type used by the parser while assembling declarator
// types inside-out; it never appears in a finished AST.
type Hole struct{}

func (*Hole) typeNode() {}

// String renders the placeholder.
func (*Hole) String() string { return "<hole>" }

// Size returns -1; a hole has no size.
func (*Hole) Size() int { return -1 }

// Unqualify resolves typedef aliases to the underlying type.
func Unqualify(t Type) Type {
	for {
		n, ok := t.(*Named)
		if !ok {
			return t
		}
		t = n.Underlying
	}
}

// IsCharPointer reports whether t is char* (after resolving typedefs),
// including signed/unsigned char pointers.
func IsCharPointer(t Type) bool {
	p, ok := Unqualify(t).(*Pointer)
	if !ok {
		return false
	}
	return IsCharLike(p.Elem)
}

// IsCharArray reports whether t is an array of char.
func IsCharArray(t Type) bool {
	a, ok := Unqualify(t).(*Array)
	if !ok {
		return false
	}
	return IsCharLike(a.Elem)
}

// IsCharLike reports whether t is a character type.
func IsCharLike(t Type) bool {
	b, ok := Unqualify(t).(*Basic)
	if !ok {
		return false
	}
	return b.Kind == Char || b.Kind == SChar || b.Kind == UChar
}

// IsPointer reports whether t is a pointer type after typedef resolution.
func IsPointer(t Type) bool {
	_, ok := Unqualify(t).(*Pointer)
	return ok
}

// IsArray reports whether t is an array type after typedef resolution.
func IsArray(t Type) bool {
	_, ok := Unqualify(t).(*Array)
	return ok
}

// IsInteger reports whether t is an integer type after typedef resolution.
func IsInteger(t Type) bool {
	switch x := Unqualify(t).(type) {
	case *Basic:
		return x.IsInteger()
	case *Enum:
		return true
	default:
		return false
	}
}

// Elem returns the element type of a pointer or array, or nil.
func Elem(t Type) Type {
	switch x := Unqualify(t).(type) {
	case *Pointer:
		return x.Elem
	case *Array:
		return x.Elem
	default:
		return nil
	}
}

// Decay converts array types to pointer types (array-to-pointer decay) and
// function types to function pointers; other types pass through.
func Decay(t Type) Type {
	switch x := Unqualify(t).(type) {
	case *Array:
		return PointerTo(x.Elem)
	case *Func:
		return PointerTo(x)
	default:
		return t
	}
}
