package ctype

import (
	"testing"
	"testing/quick"
)

func TestBasicSizes(t *testing.T) {
	tests := []struct {
		typ  Type
		size int
	}{
		{CharType, 1}, {SCharType, 1}, {UCharType, 1}, {BoolType, 1},
		{ShortType, 2}, {UShortType, 2},
		{IntType, 4}, {UIntType, 4}, {FloatType, 4},
		{LongType, 8}, {ULongType, 8}, {LongLongType, 8}, {DoubleType, 8},
		{VoidType, -1},
		{PointerTo(CharType), 8},
		{ArrayOf(CharType, 10), 10},
		{ArrayOf(IntType, 10), 40},
		{ArrayOf(CharType, -1), -1},
	}
	for _, tt := range tests {
		if got := tt.typ.Size(); got != tt.size {
			t.Errorf("%s: size %d, want %d", tt.typ, got, tt.size)
		}
	}
}

func TestRecordLayout(t *testing.T) {
	// The stralloc struct: s@0, f@8, len@16, a@20, size 24.
	rec := &Record{Tag: "stralloc"}
	rec.SetFields([]Field{
		{Name: "s", Type: PointerTo(CharType)},
		{Name: "f", Type: PointerTo(CharType)},
		{Name: "len", Type: UIntType},
		{Name: "a", Type: UIntType},
	})
	wantOffsets := map[string]int{"s": 0, "f": 8, "len": 16, "a": 20}
	for name, want := range wantOffsets {
		f, ok := rec.FieldNamed(name)
		if !ok || f.Offset != want {
			t.Errorf("%s: offset %d, want %d", name, f.Offset, want)
		}
	}
	if rec.Size() != 24 {
		t.Fatalf("size: %d, want 24", rec.Size())
	}
}

func TestRecordPadding(t *testing.T) {
	rec := &Record{Tag: "padded"}
	rec.SetFields([]Field{
		{Name: "c", Type: CharType},
		{Name: "p", Type: PointerTo(VoidType)},
		{Name: "c2", Type: CharType},
	})
	f, _ := rec.FieldNamed("p")
	if f.Offset != 8 {
		t.Fatalf("p offset: %d, want 8 (alignment)", f.Offset)
	}
	if rec.Size() != 24 {
		t.Fatalf("size: %d, want 24 (trailing padding)", rec.Size())
	}
}

func TestUnionLayout(t *testing.T) {
	u := &Record{Tag: "u", IsUnion: true}
	u.SetFields([]Field{
		{Name: "i", Type: IntType},
		{Name: "d", Type: DoubleType},
		{Name: "c", Type: CharType},
	})
	for _, f := range u.Fields {
		if f.Offset != 0 {
			t.Fatalf("union member %s at offset %d", f.Name, f.Offset)
		}
	}
	if u.Size() != 8 {
		t.Fatalf("union size: %d, want 8", u.Size())
	}
}

func TestIncompleteRecord(t *testing.T) {
	rec := &Record{Tag: "fwd"}
	if rec.Size() != -1 {
		t.Fatal("incomplete record must have size -1")
	}
}

func TestCharPredicates(t *testing.T) {
	if !IsCharPointer(PointerTo(CharType)) {
		t.Fatal("char* is a char pointer")
	}
	if !IsCharPointer(PointerTo(UCharType)) {
		t.Fatal("unsigned char* counts as char pointer")
	}
	if IsCharPointer(PointerTo(IntType)) {
		t.Fatal("int* is not a char pointer")
	}
	if !IsCharArray(ArrayOf(CharType, 4)) {
		t.Fatal("char[4] is a char array")
	}
	if IsCharArray(ArrayOf(PointerTo(CharType), 4)) {
		t.Fatal("char*[4] is not a char array")
	}
	named := &Named{Name: "buf_t", Underlying: PointerTo(CharType)}
	if !IsCharPointer(named) {
		t.Fatal("typedefs must resolve in predicates")
	}
}

func TestDecay(t *testing.T) {
	d := Decay(ArrayOf(CharType, 8))
	p, ok := d.(*Pointer)
	if !ok || !IsCharLike(p.Elem) {
		t.Fatalf("array decay: %s", d)
	}
	f := &Func{Result: IntType}
	if _, ok := Decay(f).(*Pointer); !ok {
		t.Fatal("function decay to pointer")
	}
	if Decay(IntType) != IntType {
		t.Fatal("scalars pass through")
	}
}
func TestElem(t *testing.T) {
	if Elem(PointerTo(IntType)) != IntType {
		t.Fatal("pointer elem")
	}
	if Elem(ArrayOf(IntType, 2)) != IntType {
		t.Fatal("array elem")
	}
	if Elem(IntType) != nil {
		t.Fatal("scalar has no elem")
	}
}

func TestPredicates(t *testing.T) {
	if !IsInteger(IntType) || !IsInteger(ULongType) || IsInteger(FloatType) {
		t.Fatal("IsInteger")
	}
	e := &Enum{Tag: "e"}
	if !IsInteger(e) || e.Size() != 4 {
		t.Fatal("enums are int-like")
	}
}

// TestPropertyArraySizeLinear: sizeof(T[n]) == n * sizeof(T) for complete
// element types.
func TestPropertyArraySizeLinear(t *testing.T) {
	elems := []Type{CharType, ShortType, IntType, LongType, PointerTo(CharType)}
	f := func(rawN uint16, pick uint8) bool {
		n := int(rawN % 1000)
		elem := elems[int(pick)%len(elems)]
		return ArrayOf(elem, n).Size() == n*elem.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNestedPointerSize: any pointer chain is 8 bytes.
func TestPropertyNestedPointerSize(t *testing.T) {
	f := func(depth uint8) bool {
		var typ Type = IntType
		for i := 0; i < int(depth%12)+1; i++ {
			typ = PointerTo(typ)
		}
		return typ.Size() == 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUnqualifyIdempotent: Unqualify is a fixpoint after one
// application.
func TestPropertyUnqualifyIdempotent(t *testing.T) {
	f := func(depth uint8) bool {
		var typ Type = ArrayOf(CharType, 4)
		for i := 0; i < int(depth%6); i++ {
			typ = &Named{Name: "t", Underlying: typ}
		}
		once := Unqualify(typ)
		return Unqualify(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeStrings(t *testing.T) {
	tests := []struct {
		typ  Type
		want string
	}{
		{PointerTo(CharType), "char *"},
		{ArrayOf(IntType, 3), "int [3]"},
		{ArrayOf(IntType, -1), "int []"},
		{&Func{Result: IntType, Params: []Type{PointerTo(CharType)}}, "int (char *)"},
		{&Func{Result: VoidType, Variadic: true}, "void (...)"},
		{&Func{Result: IntType, Params: []Type{IntType}, Variadic: true}, "int (int, ...)"},
		{&Record{Tag: "s"}, "struct s"},
		{&Record{Tag: "u", IsUnion: true}, "union u"},
		{&Record{}, "struct <anonymous>"},
		{&Enum{Tag: "e"}, "enum e"},
		{&Enum{}, "enum <anonymous>"},
		{&Named{Name: "size_t", Underlying: ULongType}, "size_t"},
		{&Hole{}, "<hole>"},
		{&Basic{Kind: LongDouble}, "long double"},
	}
	for _, tt := range tests {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("String: got %q, want %q", got, tt.want)
		}
	}
	if (&Hole{}).Size() != -1 {
		t.Error("hole size")
	}
	if (&Named{Name: "n", Underlying: IntType}).Size() != 4 {
		t.Error("named size delegates")
	}
}

func TestBasicPredicates(t *testing.T) {
	for _, k := range []BasicKind{Bool, Char, SChar, UChar, Short, UShort, Int, UInt, Long, ULong, LongLong, ULongLong} {
		b := &Basic{Kind: k}
		if !b.IsInteger() || b.IsFloat() {
			t.Errorf("%s must be integer, not float", b)
		}
	}
	for _, k := range []BasicKind{Float, Double, LongDouble} {
		b := &Basic{Kind: k}
		if b.IsInteger() || !b.IsFloat() {
			t.Errorf("%s must be float", b)
		}
	}
	v := &Basic{Kind: Void}
	if v.IsInteger() || v.IsFloat() {
		t.Error("void is neither")
	}
}

func TestFieldNamedMissing(t *testing.T) {
	rec := &Record{Tag: "r"}
	rec.SetFields([]Field{{Name: "x", Type: IntType}})
	if _, ok := rec.FieldNamed("nope"); ok {
		t.Fatal("missing field must report false")
	}
}
