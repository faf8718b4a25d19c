package cparse

import (
	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/ctype"
)

// declSpecs is the result of parsing declaration specifiers.
type declSpecs struct {
	base    ctype.Type
	storage cast.StorageClass
}

// declarator is the result of parsing one declarator: a name and the full
// type built around the base type.
type declarator struct {
	name       string
	typ        ctype.Type
	nameExtent ctoken.Extent
	// params holds parameter declarations when the declarator declares a
	// function.
	params []*cast.ParamDecl
}

// parseDeclSpecs parses storage-class specifiers, type specifiers and
// qualifiers. It requires at least one type specifier (implicit int is not
// supported; the paper's corpora are C89/C99 with explicit types).
func (p *Parser) parseDeclSpecs() declSpecs {
	var (
		storage  = cast.StorageNone
		sawSign  = 0 // 0 none, 1 signed, 2 unsigned
		nLong    int
		sawShort bool
		baseKind = ctype.Invalid
		base     ctype.Type
	)
	setStorage := func(s cast.StorageClass) {
		if storage != cast.StorageNone {
			p.errorf(p.cur().Extent.Pos, "multiple storage classes")
		}
		storage = s
	}
	for {
		t := p.cur()
		switch {
		case t.IsKeyword("typedef"):
			setStorage(cast.StorageTypedef)
			p.advance()
		case t.IsKeyword("extern"):
			setStorage(cast.StorageExtern)
			p.advance()
		case t.IsKeyword("static"):
			setStorage(cast.StorageStatic)
			p.advance()
		case t.IsKeyword("auto"):
			setStorage(cast.StorageAuto)
			p.advance()
		case t.IsKeyword("register"):
			setStorage(cast.StorageRegister)
			p.advance()
		case t.IsKeyword("const"), t.IsKeyword("volatile"), t.IsKeyword("restrict"),
			t.IsKeyword("__restrict"), t.IsKeyword("inline"), t.IsKeyword("__inline"),
			t.IsKeyword("__extension__"):
			p.advance() // qualifiers don't affect our type model
		case t.IsKeyword("void"):
			baseKind = ctype.Void
			p.advance()
		case t.IsKeyword("char"):
			baseKind = ctype.Char
			p.advance()
		case t.IsKeyword("int"):
			if baseKind == ctype.Invalid {
				baseKind = ctype.Int
			}
			p.advance()
		case t.IsKeyword("short"):
			sawShort = true
			p.advance()
		case t.IsKeyword("long"):
			nLong++
			p.advance()
		case t.IsKeyword("float"):
			baseKind = ctype.Float
			p.advance()
		case t.IsKeyword("double"):
			baseKind = ctype.Double
			p.advance()
		case t.IsKeyword("_Bool"):
			baseKind = ctype.Bool
			p.advance()
		case t.IsKeyword("signed"):
			sawSign = 1
			p.advance()
		case t.IsKeyword("unsigned"):
			sawSign = 2
			p.advance()
		case t.IsKeyword("struct"), t.IsKeyword("union"):
			base = p.parseRecordSpec(t.Text == "union")
		case t.IsKeyword("enum"):
			base = p.parseEnumSpec()
		case t.Kind == ctoken.KindIdent && p.isTypeName(t.Text) &&
			base == nil && baseKind == ctype.Invalid && sawSign == 0 && nLong == 0 && !sawShort:
			sym := p.lookup(t.Text)
			base = sym.Type
			p.advance()
		default:
			goto done
		}
	}
done:
	if base == nil {
		base = resolveBasic(baseKind, sawSign, nLong, sawShort, p)
	}
	return declSpecs{base: base, storage: storage}
}

func resolveBasic(kind ctype.BasicKind, sign, nLong int, short bool, p *Parser) ctype.Type {
	unsigned := sign == 2
	switch {
	case short:
		if unsigned {
			return ctype.UShortType
		}
		return ctype.ShortType
	case nLong >= 2:
		if unsigned {
			return ctype.ULongLongType
		}
		return ctype.LongLongType
	case nLong == 1 && kind == ctype.Double:
		return &ctype.Basic{Kind: ctype.LongDouble}
	case nLong == 1:
		if unsigned {
			return ctype.ULongType
		}
		return ctype.LongType
	}
	switch kind {
	case ctype.Invalid:
		switch sign {
		case 1:
			return ctype.IntType
		case 2:
			return ctype.UIntType
		default:
			p.errorf(p.cur().Extent.Pos, "expected type specifier, found %s", p.cur())
			return nil // unreachable
		}
	case ctype.Char:
		switch sign {
		case 1:
			return ctype.SCharType
		case 2:
			return ctype.UCharType
		default:
			return ctype.CharType
		}
	case ctype.Int:
		if unsigned {
			return ctype.UIntType
		}
		return ctype.IntType
	case ctype.Void:
		return ctype.VoidType
	case ctype.Float:
		return ctype.FloatType
	case ctype.Double:
		return ctype.DoubleType
	case ctype.Bool:
		return ctype.BoolType
	default:
		return &ctype.Basic{Kind: kind}
	}
}

// parseRecordSpec parses struct/union specifiers: a tag reference, a
// definition, or an anonymous definition.
func (p *Parser) parseRecordSpec(isUnion bool) ctype.Type {
	p.advance() // struct / union
	tag := ""
	if p.at(ctoken.KindIdent) {
		tag = p.advance().Text
	}
	if !p.atText("{") {
		// Reference (or forward declaration). Find or create the tag.
		if tag == "" {
			p.errorf(p.cur().Extent.Pos, "anonymous %s requires a body", recordKw(isUnion))
		}
		if t := p.lookupTag(tagKey(isUnion, tag)); t != nil {
			return t
		}
		rec := &ctype.Record{Tag: tag, IsUnion: isUnion}
		p.declareTag(tagKey(isUnion, tag), rec)
		return rec
	}
	// Definition.
	var rec *ctype.Record
	if tag != "" {
		t, depth := p.lookupTagDepth(tagKey(isUnion, tag))
		if depth >= 0 && depth < p.seeded {
			// A whole parse completes the tag's record if it is still a
			// forward declaration here and defines a new one otherwise;
			// the retained record shows only its final state.
			p.decline()
		}
		if r, ok := t.(*ctype.Record); ok && !r.Complete {
			rec = r // completing a forward declaration
		}
	}
	if rec == nil {
		rec = &ctype.Record{Tag: tag, IsUnion: isUnion}
		if tag != "" {
			p.declareTag(tagKey(isUnion, tag), rec)
		}
	}
	p.expect("{")
	var fields []ctype.Field
	for !p.atText("}") {
		specs := p.parseDeclSpecs()
		if p.accept(";") {
			// Anonymous member (e.g. nested anonymous struct) — flatten its
			// fields if it is a record.
			if r, ok := ctype.Unqualify(specs.base).(*ctype.Record); ok {
				fields = append(fields, r.Fields...)
			}
			continue
		}
		for {
			d := p.parseDeclarator(specs.base)
			// Bitfields are consumed but width is ignored (not needed by
			// the paper's corpora).
			if p.accept(":") {
				p.parseConditionalExpr()
			}
			fields = append(fields, ctype.Field{Name: d.name, Type: d.typ})
			if !p.accept(",") {
				break
			}
		}
		p.expect(";")
	}
	p.expect("}")
	rec.SetFields(fields)
	if tag != "" {
		p.logTag(tagKey(isUnion, tag), rec, true)
	}
	return rec
}

func recordKw(isUnion bool) string {
	if isUnion {
		return "union"
	}
	return "struct"
}

func tagKey(isUnion bool, tag string) string {
	return recordKw(isUnion) + " " + tag
}

// parseEnumSpec parses enum specifiers.
func (p *Parser) parseEnumSpec() ctype.Type {
	p.advance() // enum
	tag := ""
	if p.at(ctoken.KindIdent) {
		tag = p.advance().Text
	}
	if !p.atText("{") {
		if tag == "" {
			p.errorf(p.cur().Extent.Pos, "anonymous enum requires a body")
		}
		if t := p.lookupTag("enum " + tag); t != nil {
			return t
		}
		e := &ctype.Enum{Tag: tag}
		p.declareTag("enum "+tag, e)
		return e
	}
	e := &ctype.Enum{Tag: tag}
	if tag != "" {
		p.declareTag("enum "+tag, e)
	}
	p.expect("{")
	var next int64
	for !p.atText("}") {
		nameTok := p.expectIdent()
		val := next
		if p.accept("=") {
			expr := p.parseConditionalExpr()
			if v, ok := ConstIntValue(expr); ok {
				val = v
			}
		}
		e.Consts = append(e.Consts, ctype.EnumConst{Name: nameTok.Text, Value: val})
		p.declare(&cast.Symbol{
			Name: nameTok.Text,
			Kind: cast.SymEnumConst,
			Type: e,
		})
		next = val + 1
		if !p.accept(",") {
			break
		}
	}
	p.expect("}")
	return e
}

// parseDeclarator parses a declarator (pointer stars, direct declarator,
// array/function suffixes) around the base type.
func (p *Parser) parseDeclarator(base ctype.Type) declarator {
	typ := p.parsePointerStars(base)
	return p.parseDirectDeclarator(typ)
}

func (p *Parser) parsePointerStars(typ ctype.Type) ctype.Type {
	for p.accept("*") {
		typ = ctype.PointerTo(typ)
		for p.cur().IsKeyword("const") || p.cur().IsKeyword("volatile") ||
			p.cur().IsKeyword("restrict") || p.cur().IsKeyword("__restrict") {
			p.advance()
		}
	}
	return typ
}

// parseDirectDeclarator handles the inner part: identifier or parenthesized
// declarator, followed by array/function suffixes. The C declarator grammar
// is inside-out: suffixes bind tighter than the pointer prefix, and a
// parenthesized declarator captures the type built from outside. We use the
// standard trick of parsing the inner declarator with a placeholder and
// patching it afterwards.
func (p *Parser) parseDirectDeclarator(typ ctype.Type) declarator {
	var d declarator
	if p.atText("(") && p.isParenDeclarator() {
		p.advance()
		inner := p.parseDeclarator(&ctype.Hole{})
		p.expect(")")
		suffixed := p.parseDeclaratorSuffixes(typ, &d)
		d.name = inner.name
		d.nameExtent = inner.nameExtent
		d.typ = substitutePlaceholder(inner.typ, suffixed)
		if inner.params != nil {
			d.params = inner.params
		}
		return d
	}
	if p.at(ctoken.KindIdent) {
		tok := p.advance()
		d.name = tok.Text
		d.nameExtent = tok.Extent
	}
	d.typ = p.parseDeclaratorSuffixes(typ, &d)
	return d
}

// isParenDeclarator disambiguates "(" starting a parenthesized declarator
// from "(" starting a parameter list (abstract declarators in casts/params
// can begin with "(" either way).
func (p *Parser) isParenDeclarator() bool {
	next := p.peekN(1)
	// (*...) or (ident...) where ident is not a type name → declarator.
	if next.Is("*") || next.Is("(") || next.Is("[") {
		return true
	}
	if next.Kind == ctoken.KindIdent && !p.isTypeName(next.Text) {
		return true
	}
	return false
}

// substitutePlaceholder replaces the ctype.Hole inside t with repl.
func substitutePlaceholder(t, repl ctype.Type) ctype.Type {
	switch x := t.(type) {
	case *ctype.Hole:
		_ = x
		return repl
	case *ctype.Pointer:
		return ctype.PointerTo(substitutePlaceholder(x.Elem, repl))
	case *ctype.Array:
		return &ctype.Array{Elem: substitutePlaceholder(x.Elem, repl), Len: x.Len}
	case *ctype.Func:
		return &ctype.Func{
			Result:   substitutePlaceholder(x.Result, repl),
			Params:   x.Params,
			Variadic: x.Variadic,
		}
	default:
		return t
	}
}

// parseDeclaratorSuffixes parses [len] and (params) suffixes. In C the
// suffixes apply left to right: a[2][3] is array 2 of array 3; f(void)[?]
// is invalid so ordering subtleties are minimal. We parse suffixes
// recursively so the leftmost binds outermost.
func (p *Parser) parseDeclaratorSuffixes(typ ctype.Type, d *declarator) ctype.Type {
	switch {
	case p.atText("["):
		p.advance()
		length := -1
		if !p.atText("]") {
			expr := p.parseAssignExpr()
			if v, ok := ConstIntValue(expr); ok {
				length = int(v)
			}
		}
		p.expect("]")
		inner := p.parseDeclaratorSuffixes(typ, d)
		return &ctype.Array{Elem: inner, Len: length}
	case p.atText("("):
		p.advance()
		ft := &ctype.Func{Result: typ}
		var params []*cast.ParamDecl
		if p.atText(")") {
			// Empty parameter list: unspecified parameters.
			ft.Variadic = true
		} else if p.cur().IsKeyword("void") && p.peekN(1).Is(")") {
			p.advance() // (void)
		} else {
			for {
				if p.accept("...") {
					ft.Variadic = true
					break
				}
				start := p.cur().Extent.Pos
				specs := p.parseDeclSpecs()
				pd := p.parseDeclarator(specs.base)
				paramType := ctype.Decay(pd.typ)
				ft.Params = append(ft.Params, paramType)
				param := &cast.ParamDecl{Name: pd.name, Type: paramType}
				param.SetExtent(ctoken.Extent{Pos: start, End: p.cur().Extent.Pos})
				params = append(params, param)
				if !p.accept(",") {
					break
				}
			}
		}
		p.expect(")")
		d.params = params
		// Function suffixes cannot nest further in our subset; array of
		// functions is invalid C anyway.
		return ft
	default:
		return typ
	}
}

// parseTypeName parses a type-name (for casts and sizeof): decl specs plus
// an abstract declarator.
func (p *Parser) parseTypeName() ctype.Type {
	specs := p.parseDeclSpecs()
	typ := p.parsePointerStars(specs.base)
	// Abstract declarator suffixes.
	var d declarator
	typ = p.parseDeclaratorSuffixes(typ, &d)
	return typ
}

// parseInitializer parses an initializer: assignment expression or brace
// list.
func (p *Parser) parseInitializer() cast.Expr {
	if !p.atText("{") {
		return p.parseAssignExpr()
	}
	start := p.advance().Extent.Pos
	lst := &cast.InitListExpr{}
	for !p.atText("}") {
		// Designators are consumed and ignored.
		for p.atText(".") || p.atText("[") {
			if p.accept(".") {
				p.expectIdent()
			} else {
				p.expect("[")
				p.parseConditionalExpr()
				p.expect("]")
			}
		}
		p.accept("=")
		lst.Elems = append(lst.Elems, p.parseInitializer())
		if !p.accept(",") {
			break
		}
	}
	end := p.expect("}").Extent.End
	lst.SetExtent(ctoken.Extent{Pos: start, End: end})
	return lst
}

// ConstIntValue evaluates a constant integer expression at parse time. It
// handles the operators that appear in array bounds and enum values in the
// paper's corpora.
func ConstIntValue(e cast.Expr) (int64, bool) {
	switch x := cast.Unparen(e).(type) {
	case *cast.IntLit:
		return x.Value, true
	case *cast.CharLit:
		return int64(x.Value), true
	case *cast.UnaryExpr:
		v, ok := ConstIntValue(x.Operand)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case cast.UnaryMinus:
			return -v, true
		case cast.UnaryPlus:
			return v, true
		case cast.UnaryBitNot:
			return ^v, true
		case cast.UnaryNot:
			if v == 0 {
				return 1, true
			}
			return 0, true
		default:
			return 0, false
		}
	case *cast.BinaryExpr:
		a, ok1 := ConstIntValue(x.X)
		b, ok2 := ConstIntValue(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case cast.BinaryAdd:
			return a + b, true
		case cast.BinarySub:
			return a - b, true
		case cast.BinaryMul:
			return a * b, true
		case cast.BinaryDiv:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case cast.BinaryRem:
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case cast.BinaryShl:
			return a << uint(b), true
		case cast.BinaryShr:
			return a >> uint(b), true
		case cast.BinaryAnd:
			return a & b, true
		case cast.BinaryOr:
			return a | b, true
		case cast.BinaryXor:
			return a ^ b, true
		default:
			return 0, false
		}
	case *cast.SizeofExpr:
		if x.OfType != nil {
			if s := x.OfType.Size(); s >= 0 {
				return int64(s), true
			}
		} else if x.Operand != nil && x.Operand.Type() != nil {
			if s := x.Operand.Type().Size(); s >= 0 {
				return int64(s), true
			}
		}
		return 0, false
	case *cast.Ident:
		// Enum constants resolve at parse time.
		if x.Sym != nil && x.Sym.Kind == cast.SymEnumConst {
			if e, ok := ctype.Unqualify(x.Sym.Type).(*ctype.Enum); ok {
				for _, c := range e.Consts {
					if c.Name == x.Name {
						return c.Value, true
					}
				}
			}
		}
		return 0, false
	default:
		return 0, false
	}
}
