package cparse

import (
	"strconv"
	"strings"

	"repro/internal/cast"
	"repro/internal/ctoken"
)

// parseExpr parses a full expression including the comma operator.
func (p *Parser) parseExpr() cast.Expr {
	e := p.parseAssignExpr()
	for p.atText(",") {
		p.advance()
		rhs := p.parseAssignExpr()
		c := &cast.CommaExpr{X: e, Y: rhs}
		c.SetExtent(e.Extent().Union(rhs.Extent()))
		e = c
	}
	return e
}

var _assignOps = map[string]cast.AssignOp{
	"=": cast.AssignPlain, "+=": cast.AssignAdd, "-=": cast.AssignSub,
	"*=": cast.AssignMul, "/=": cast.AssignDiv, "%=": cast.AssignRem,
	"<<=": cast.AssignShl, ">>=": cast.AssignShr, "&=": cast.AssignAnd,
	"^=": cast.AssignXor, "|=": cast.AssignOr,
}

// parseAssignExpr parses an assignment expression. Assignment is
// right-associative; we parse a conditional expression first and promote it
// to an LHS when an assignment operator follows.
func (p *Parser) parseAssignExpr() cast.Expr {
	lhs := p.parseConditionalExpr()
	if p.cur().Kind == ctoken.KindPunct {
		if op, ok := _assignOps[p.cur().Text]; ok {
			p.advance()
			rhs := p.parseAssignExpr()
			a := &cast.AssignExpr{Op: op, LHS: lhs, RHS: rhs}
			a.SetExtent(lhs.Extent().Union(rhs.Extent()))
			return a
		}
	}
	return lhs
}

// parseConditionalExpr parses cond ? then : else.
func (p *Parser) parseConditionalExpr() cast.Expr {
	cond := p.parseBinaryExpr(0)
	if !p.atText("?") {
		return cond
	}
	p.advance()
	thenE := p.parseExpr()
	p.expect(":")
	elseE := p.parseConditionalExpr()
	c := &cast.CondExpr{Cond: cond, Then: thenE, Else: elseE}
	c.SetExtent(cond.Extent().Union(elseE.Extent()))
	return c
}

// binary operator precedence, higher binds tighter.
var _binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

var _binOps = map[string]cast.BinaryOp{
	"||": cast.BinaryLOr, "&&": cast.BinaryLAnd, "|": cast.BinaryOr,
	"^": cast.BinaryXor, "&": cast.BinaryAnd, "==": cast.BinaryEq,
	"!=": cast.BinaryNe, "<": cast.BinaryLt, ">": cast.BinaryGt,
	"<=": cast.BinaryLe, ">=": cast.BinaryGe, "<<": cast.BinaryShl,
	">>": cast.BinaryShr, "+": cast.BinaryAdd, "-": cast.BinarySub,
	"*": cast.BinaryMul, "/": cast.BinaryDiv, "%": cast.BinaryRem,
}

// parseBinaryExpr is a precedence climber over the binary operator table.
func (p *Parser) parseBinaryExpr(minPrec int) cast.Expr {
	lhs := p.parseCastExpr()
	for {
		t := p.cur()
		if t.Kind != ctoken.KindPunct {
			return lhs
		}
		prec, ok := _binPrec[t.Text]
		if !ok || prec <= minPrec {
			return lhs
		}
		p.advance()
		rhs := p.parseBinaryExpr(prec)
		b := &cast.BinaryExpr{Op: _binOps[t.Text], X: lhs, Y: rhs}
		b.SetExtent(lhs.Extent().Union(rhs.Extent()))
		lhs = b
	}
}

// parseCastExpr parses (type)expr or delegates to unary.
func (p *Parser) parseCastExpr() cast.Expr {
	if p.atText("(") && p.startsTypeName(1) && !p.isCompoundLiteralAhead() {
		start := p.cur().Extent.Pos
		p.advance()
		typeStart := p.cur().Extent.Pos
		typ := p.parseTypeName()
		typeEnd := p.cur().Extent.Pos
		p.expect(")")
		operand := p.parseCastExpr()
		c := &cast.CastExpr{
			ToType:   typ,
			TypeText: strings.TrimSpace(p.text(ctoken.Extent{Pos: typeStart, End: typeEnd})),
			Operand:  operand,
		}
		c.SetExtent(ctoken.Extent{Pos: start, End: operand.Extent().End})
		return c
	}
	return p.parseUnaryExpr()
}

// isCompoundLiteralAhead detects (type){...} compound literals so they are
// not parsed as casts. We scan to the matching ')' and check for '{'.
func (p *Parser) isCompoundLiteralAhead() bool {
	depth := 0
	for i := p.pos; i < len(p.toks); i++ {
		t := p.toks[i]
		switch {
		case t.Is("("):
			depth++
		case t.Is(")"):
			depth--
			if depth == 0 {
				return i+1 < len(p.toks) && p.toks[i+1].Is("{")
			}
		case t.Kind == ctoken.KindEOF:
			p.peekedEOF = true
			return false
		}
	}
	return false
}

var _prefixOps = map[string]cast.UnaryOp{
	"&": cast.UnaryAddrOf, "*": cast.UnaryDeref, "+": cast.UnaryPlus,
	"-": cast.UnaryMinus, "!": cast.UnaryNot, "~": cast.UnaryBitNot,
	"++": cast.UnaryPreInc, "--": cast.UnaryPreDec,
}

// parseUnaryExpr parses prefix operators, sizeof, and postfix expressions.
func (p *Parser) parseUnaryExpr() cast.Expr {
	t := p.cur()
	if t.Kind == ctoken.KindPunct {
		if op, ok := _prefixOps[t.Text]; ok {
			start := p.advance().Extent.Pos
			var operand cast.Expr
			if op == cast.UnaryPreInc || op == cast.UnaryPreDec {
				operand = p.parseUnaryExpr()
			} else {
				operand = p.parseCastExpr()
			}
			u := &cast.UnaryExpr{Op: op, Operand: operand}
			u.SetExtent(ctoken.Extent{Pos: start, End: operand.Extent().End})
			return u
		}
	}
	if t.IsKeyword("sizeof") {
		start := p.advance().Extent.Pos
		if p.atText("(") && p.startsTypeName(1) {
			p.advance()
			typeStart := p.cur().Extent.Pos
			typ := p.parseTypeName()
			typeEnd := p.cur().Extent.Pos
			end := p.expect(")").Extent.End
			s := &cast.SizeofExpr{
				OfType:   typ,
				TypeText: strings.TrimSpace(p.text(ctoken.Extent{Pos: typeStart, End: typeEnd})),
			}
			s.SetExtent(ctoken.Extent{Pos: start, End: end})
			return s
		}
		operand := p.parseUnaryExpr()
		s := &cast.SizeofExpr{Operand: operand}
		s.SetExtent(ctoken.Extent{Pos: start, End: operand.Extent().End})
		return s
	}
	return p.parsePostfixExpr()
}

// parsePostfixExpr parses a primary expression followed by postfix
// operators: calls, indexing, member access, ++/--.
func (p *Parser) parsePostfixExpr() cast.Expr {
	e := p.parsePrimaryExpr()
	for {
		switch {
		case p.atText("("):
			lp := p.advance().Extent
			call := &cast.CallExpr{Fun: e, LParen: lp}
			if !p.atText(")") {
				for {
					call.Args = append(call.Args, p.parseAssignExpr())
					if !p.accept(",") {
						break
					}
				}
			}
			rp := p.expect(")").Extent
			call.RParen = rp
			call.SetExtent(ctoken.Extent{Pos: e.Extent().Pos, End: rp.End})
			e = call
		case p.atText("["):
			p.advance()
			idx := p.parseExpr()
			end := p.expect("]").Extent.End
			ix := &cast.IndexExpr{Base: e, Index: idx}
			ix.SetExtent(ctoken.Extent{Pos: e.Extent().Pos, End: end})
			e = ix
		case p.atText(".") || p.atText("->"):
			arrow := p.advance().Text == "->"
			nameTok := p.expectIdent()
			m := &cast.MemberExpr{Base: e, Member: nameTok.Text, Arrow: arrow}
			m.SetExtent(ctoken.Extent{Pos: e.Extent().Pos, End: nameTok.Extent.End})
			e = m
		case p.atText("++"):
			end := p.advance().Extent.End
			pe := &cast.PostfixExpr{Op: cast.PostfixInc, Operand: e}
			pe.SetExtent(ctoken.Extent{Pos: e.Extent().Pos, End: end})
			e = pe
		case p.atText("--"):
			end := p.advance().Extent.End
			pe := &cast.PostfixExpr{Op: cast.PostfixDec, Operand: e}
			pe.SetExtent(ctoken.Extent{Pos: e.Extent().Pos, End: end})
			e = pe
		default:
			return e
		}
	}
}

// parsePrimaryExpr parses identifiers, literals and parenthesized
// expressions.
func (p *Parser) parsePrimaryExpr() cast.Expr {
	t := p.cur()
	switch t.Kind {
	case ctoken.KindIdent:
		p.advance()
		id := &cast.Ident{Name: t.Text, Sym: p.lookup(t.Text)}
		id.SetExtent(t.Extent)
		return id
	case ctoken.KindIntLit:
		p.advance()
		lit := &cast.IntLit{Text: t.Text, Value: decodeIntLit(t.Text)}
		lit.SetExtent(t.Extent)
		return lit
	case ctoken.KindFloatLit:
		p.advance()
		v, _ := strconv.ParseFloat(strings.TrimRight(t.Text, "fFlL"), 64)
		lit := &cast.FloatLit{Text: t.Text, Value: v}
		lit.SetExtent(t.Extent)
		return lit
	case ctoken.KindCharLit:
		p.advance()
		lit := &cast.CharLit{Text: t.Text, Value: decodeCharLit(t.Text)}
		lit.SetExtent(t.Extent)
		return lit
	case ctoken.KindStringLit:
		p.advance()
		value := decodeStringLit(t.Text)
		ext := t.Extent
		// Adjacent string literals concatenate.
		for p.at(ctoken.KindStringLit) {
			nt := p.advance()
			value += decodeStringLit(nt.Text)
			ext = ext.Union(nt.Extent)
		}
		lit := &cast.StringLit{Text: p.text(ext), Value: value}
		lit.SetExtent(ext)
		return lit
	case ctoken.KindPunct:
		if t.Text == "(" {
			start := p.advance().Extent.Pos
			inner := p.parseExpr()
			end := p.expect(")").Extent.End
			pe := &cast.ParenExpr{Inner: inner}
			pe.SetExtent(ctoken.Extent{Pos: start, End: end})
			return pe
		}
	}
	p.errorf(t.Extent.Pos, "expected expression, found %s", t)
	return nil // unreachable
}

// decodeIntLit decodes decimal, octal and hex integer literals with
// optional suffixes.
func decodeIntLit(text string) int64 {
	s := strings.TrimRight(text, "uUlL")
	if s == "" {
		return 0
	}
	var (
		v   uint64
		err error
	)
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	case len(s) > 1 && s[0] == '0':
		v, err = strconv.ParseUint(s[1:], 8, 64)
	default:
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0
	}
	return int64(v)
}

// decodeCharLit decodes a character literal's first byte.
func decodeCharLit(text string) byte {
	inner := strings.TrimSuffix(strings.TrimPrefix(text, "'"), "'")
	b, _ := decodeEscape(inner)
	return b
}

// decodeStringLit decodes a string literal's contents.
func decodeStringLit(text string) string {
	inner := text
	inner = strings.TrimPrefix(inner, "L")
	inner = strings.TrimSuffix(strings.TrimPrefix(inner, `"`), `"`)
	var sb strings.Builder
	sb.Grow(len(inner))
	for i := 0; i < len(inner); {
		if inner[i] == '\\' {
			b, n := decodeEscape(inner[i:])
			sb.WriteByte(b)
			i += n
			continue
		}
		sb.WriteByte(inner[i])
		i++
	}
	return sb.String()
}

// decodeEscape decodes one (possibly escaped) character at the start of s,
// returning the byte value and the number of input bytes consumed.
func decodeEscape(s string) (byte, int) {
	if s == "" {
		return 0, 0
	}
	if s[0] != '\\' {
		return s[0], 1
	}
	if len(s) < 2 {
		return '\\', 1
	}
	switch s[1] {
	case 'n':
		return '\n', 2
	case 't':
		return '\t', 2
	case 'r':
		return '\r', 2
	case '0', '1', '2', '3', '4', '5', '6', '7':
		// Octal escape: up to 3 digits.
		v := 0
		n := 1
		for n < len(s) && n <= 3 && s[n] >= '0' && s[n] <= '7' {
			v = v*8 + int(s[n]-'0')
			n++
		}
		return byte(v), n
	case 'x':
		v := 0
		n := 2
		for n < len(s) && isHex(s[n]) {
			v = v*16 + hexVal(s[n])
			n++
		}
		return byte(v), n
	case '\\':
		return '\\', 2
	case '\'':
		return '\'', 2
	case '"':
		return '"', 2
	case 'a':
		return 7, 2
	case 'b':
		return 8, 2
	case 'f':
		return 12, 2
	case 'v':
		return 11, 2
	default:
		return s[1], 2
	}
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
