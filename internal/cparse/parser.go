// Package cparse implements a recursive-descent parser for the preprocessed
// C subset used throughout this repository.
//
// The parser performs name binding as it goes (C's grammar requires typedef
// knowledge during parsing anyway), producing a cast.TranslationUnit whose
// identifiers are resolved to cast.Symbol values. Expression types are
// computed by a later pass (internal/typecheck).
//
// Parse is the whole-unit entry. ParseFunc re-parses one function body
// of an already parsed unit after an edit inside it, starting from the
// file scope as it stood at that body; the unit keeps what that needs
// (Symbols in ID order, each body's ID range in Bodies, the file-scope
// tag log in Tags). ParseFunc declines (ErrDeclined) whenever its result
// could differ from a whole parse of the same text.
package cparse

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/ctoken"
	"repro/internal/ctype"
)

// Error is a parse error with source position information.
type Error struct {
	Pos ctoken.Position
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// bail is the internal control-flow panic used to unwind on a parse error
// (an *Error) or on ParseFunc declining (ErrDeclined). It never escapes
// the package: Parse and ParseFunc recover it.
type bail struct{ err error }

type scope struct {
	names map[string]*cast.Symbol
	tags  map[string]ctype.Type
}

// Parser holds the state for parsing one translation unit.
type Parser struct {
	file *ctoken.File
	// src is the text the tokens were lexed from, which starts at offset
	// base of the file: the whole text, or one function body.
	src    string
	base   ctoken.Pos
	toks   []ctoken.Token
	pos    int
	scopes []*scope
	unit   *cast.TranslationUnit
	nextID int
	// seeded is the number of outer scopes ParseFunc rebuilt from a
	// retained unit (0 for a whole parse).
	seeded int
	// peekedEOF records a lookahead that reached the end of the tokens.
	peekedEOF bool
}

// parses counts Parse calls and funcParses ParseFunc calls process-wide.
// The batch pipeline's parse-once guarantee and the session's
// function-only re-parse are asserted against them in tests.
var parses, funcParses atomic.Int64

// Parses returns the number of Parse calls made since process start.
func Parses() int64 { return parses.Load() }

// FuncParses returns the number of ParseFunc calls made since process
// start.
func FuncParses() int64 { return funcParses.Load() }

// Parse parses a complete translation unit from src. The name is used for
// diagnostics only. On error the partially built unit is returned alongside
// the error when possible.
func Parse(name, src string) (*cast.TranslationUnit, error) {
	parses.Add(1)
	toks, err := clex.TokenizeForParser(src)
	if err != nil {
		return nil, fmt.Errorf("tokenize %s: %w", name, err)
	}
	p := &Parser{
		file: ctoken.NewFile(name, src),
		src:  src,
		toks: toks,
	}
	p.unit = &cast.TranslationUnit{File: p.file}
	p.unit.SetExtent(ctoken.Extent{Pos: 0, End: ctoken.Pos(len(src))})
	p.pushScope()
	declareBuiltins(p)
	p.pushScope() // file scope (keeps builtins separate)

	parseErr := p.recoverable(func() {
		for !p.at(ctoken.KindEOF) {
			d := p.parseExternalDecl()
			if d != nil {
				p.unit.Decls = append(p.unit.Decls, d)
				if f, ok := d.(*cast.FuncDef); ok {
					p.unit.Funcs = append(p.unit.Funcs, f)
				}
			}
		}
	})
	if parseErr != nil {
		return p.unit, parseErr
	}
	return p.unit, nil
}

// recoverable runs f, converting a bail panic into an error.
func (p *Parser) recoverable(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			b, ok := r.(bail)
			if !ok {
				panic(r) // not ours; propagate
			}
			err = b.err
		}
	}()
	f()
	return nil
}

func (p *Parser) errorf(pos ctoken.Pos, format string, args ...any) {
	panic(bail{err: &Error{
		Pos: p.file.Position(pos),
		Msg: fmt.Sprintf(format, args...),
	}})
}

// decline unwinds a ParseFunc that cannot decide the whole parse's
// result.
func (p *Parser) decline() { panic(bail{err: ErrDeclined}) }

// text returns the source text of e, which lies inside p.src.
func (p *Parser) text(e ctoken.Extent) string {
	if !e.IsValid() || e.Pos < p.base || int(e.End-p.base) > len(p.src) {
		return ""
	}
	return p.src[e.Pos-p.base : e.End-p.base]
}

// ---------------------------------------------------------------------------
// Token stream helpers
// ---------------------------------------------------------------------------

func (p *Parser) cur() ctoken.Token { return p.toks[p.pos] }

func (p *Parser) peekN(n int) ctoken.Token {
	i := p.pos + n
	if i >= len(p.toks)-1 {
		p.peekedEOF = true
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[i]
}

func (p *Parser) at(kind ctoken.Kind) bool { return p.cur().Kind == kind }

func (p *Parser) atText(text string) bool { return p.cur().Is(text) }

func (p *Parser) advance() ctoken.Token {
	t := p.cur()
	if t.Kind != ctoken.KindEOF {
		p.pos++
	}
	return t
}

// accept consumes the token if it has the given spelling.
func (p *Parser) accept(text string) bool {
	if p.atText(text) {
		p.advance()
		return true
	}
	return false
}

// expect consumes a token with the given spelling or fails.
func (p *Parser) expect(text string) ctoken.Token {
	if !p.atText(text) {
		p.errorf(p.cur().Extent.Pos, "expected %q, found %s", text, p.cur())
	}
	return p.advance()
}

func (p *Parser) expectIdent() ctoken.Token {
	if !p.at(ctoken.KindIdent) {
		p.errorf(p.cur().Extent.Pos, "expected identifier, found %s", p.cur())
	}
	return p.advance()
}

// ---------------------------------------------------------------------------
// Scopes and symbols
// ---------------------------------------------------------------------------

func (p *Parser) pushScope() {
	p.scopes = append(p.scopes, &scope{
		names: make(map[string]*cast.Symbol),
		tags:  make(map[string]ctype.Type),
	})
}

func (p *Parser) popScope() { p.scopes = p.scopes[:len(p.scopes)-1] }

func (p *Parser) atFileScope() bool { return len(p.scopes) == 2 }

func (p *Parser) lookup(name string) *cast.Symbol {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if s, ok := p.scopes[i].names[name]; ok {
			return s
		}
	}
	return nil
}

func (p *Parser) lookupTag(name string) ctype.Type {
	t, _ := p.lookupTagDepth(name)
	return t
}

// lookupTagDepth is lookupTag that also returns the index of the scope
// the tag was found in, -1 when it was not.
func (p *Parser) lookupTagDepth(name string) (ctype.Type, int) {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if t, ok := p.scopes[i].tags[name]; ok {
			return t, i
		}
	}
	return nil, -1
}

func (p *Parser) declare(sym *cast.Symbol) *cast.Symbol {
	top := p.scopes[len(p.scopes)-1]
	// Redeclaration in the same scope: C allows repeated extern/function
	// declarations; keep the first symbol, refreshing its type when the
	// new declaration is more complete.
	if prev, ok := top.names[sym.Name]; ok {
		if prev.Kind == sym.Kind {
			if prev.Type == nil || (sym.Type != nil && prev.Type.Size() < 0) {
				prev.Type = sym.Type
			}
			if prev.Decl == nil {
				prev.Decl = sym.Decl
			}
			return prev
		}
	}
	sym.ID = p.nextID
	p.nextID++
	top.names[sym.Name] = sym
	p.unit.Symbols = append(p.unit.Symbols, sym)
	return sym
}

func (p *Parser) declareTag(name string, t ctype.Type) {
	p.scopes[len(p.scopes)-1].tags[name] = t
	p.logTag(name, t, false)
}

// logTag records a file-scope tag binding in the unit's Tags.
func (p *Parser) logTag(name string, t ctype.Type, def bool) {
	if p.atFileScope() {
		p.unit.Tags = append(p.unit.Tags, cast.TagBinding{Key: name, Type: t, Funcs: len(p.unit.Funcs), Def: def})
	}
}

// isTypeName reports whether the identifier is a typedef name in scope.
func (p *Parser) isTypeName(name string) bool {
	s := p.lookup(name)
	return s != nil && s.Kind == cast.SymTypedef
}

// startsTypeName reports whether the token at offset n begins a type name.
func (p *Parser) startsTypeName(n int) bool {
	t := p.peekN(n)
	if t.Kind == ctoken.KindKeyword {
		switch t.Text {
		case "void", "char", "short", "int", "long", "float", "double",
			"signed", "unsigned", "_Bool", "struct", "union", "enum",
			"const", "volatile", "restrict", "__restrict":
			return true
		}
		return false
	}
	return t.Kind == ctoken.KindIdent && p.isTypeName(t.Text)
}

// ---------------------------------------------------------------------------
// External declarations
// ---------------------------------------------------------------------------

// parseExternalDecl parses a top-level declaration or function definition.
func (p *Parser) parseExternalDecl() cast.Decl {
	if p.accept(";") {
		return nil // stray semicolon
	}
	start := p.cur().Extent.Pos
	specs := p.parseDeclSpecs()

	// Tag-only declaration: struct S { ... }; or enum E { ... };
	if p.atText(";") {
		end := p.advance().Extent.End
		return p.tagOnlyDecl(specs, ctoken.Extent{Pos: start, End: end})
	}

	// First declarator.
	d := p.parseDeclarator(specs.base)

	// Function definition?
	if ft, ok := d.typ.(*ctype.Func); ok && p.atText("{") {
		return p.parseFuncDefBody(start, specs, d, ft)
	}

	return p.finishDeclaration(start, specs, d, true)
}

// tagOnlyDecl wraps a struct/union/enum definition that has no declarators.
func (p *Parser) tagOnlyDecl(specs declSpecs, ext ctoken.Extent) cast.Decl {
	switch t := ctype.Unqualify(specs.base).(type) {
	case *ctype.Record:
		rd := &cast.RecordDecl{Record: t}
		rd.SetExtent(ext)
		return rd
	case *ctype.Enum:
		ed := &cast.EnumDecl{Enum: t}
		ed.SetExtent(ext)
		return ed
	default:
		// e.g. "int;" — legal but useless; drop it.
		return nil
	}
}

// finishDeclaration parses the rest of a declarator list and returns a decl
// node. Used both at file scope (global=true by caller context) and in the
// DeclStmt path. The caller has already parsed the first declarator d.
func (p *Parser) finishDeclaration(start ctoken.Pos, specs declSpecs, d declarator, global bool) cast.Decl {
	if specs.storage == cast.StorageTypedef {
		return p.finishTypedef(start, specs, d)
	}
	decls := make([]*cast.VarDecl, 0, 1)
	for {
		vd := p.makeVarDecl(specs, d, global)
		if p.accept("=") {
			vd.Init = p.parseInitializer()
		}
		vd.SetExtent(ctoken.Extent{Pos: start, End: p.cur().Extent.Pos})
		decls = append(decls, vd)
		if !p.accept(",") {
			break
		}
		d = p.parseDeclarator(specs.base)
	}
	end := p.expect(";").Extent.End
	for _, vd := range decls {
		vd.SetExtent(ctoken.Extent{Pos: vd.Extent().Pos, End: end})
	}
	if len(decls) == 1 {
		return decls[0]
	}
	// Multiple declarators in one declaration: group them.
	md := &cast.MultiDecl{Decls: decls}
	md.SetExtent(ctoken.Extent{Pos: start, End: end})
	return md
}

func (p *Parser) finishTypedef(start ctoken.Pos, specs declSpecs, d declarator) cast.Decl {
	var decls []*cast.TypedefDecl
	for {
		named := &ctype.Named{Name: d.name, Underlying: d.typ}
		td := &cast.TypedefDecl{Name: d.name, Type: named}
		sym := p.declare(&cast.Symbol{
			Name: d.name,
			Kind: cast.SymTypedef,
			Type: named,
			Decl: td,
		})
		td.Sym = sym
		decls = append(decls, td)
		if !p.accept(",") {
			break
		}
		d = p.parseDeclarator(specs.base)
	}
	end := p.expect(";").Extent.End
	for _, td := range decls {
		td.SetExtent(ctoken.Extent{Pos: start, End: end})
	}
	if len(decls) == 1 {
		return decls[0]
	}
	// Rare; represent as the first and drop the rest from the tree (they
	// remain bound in scope).
	return decls[0]
}

func (p *Parser) makeVarDecl(specs declSpecs, d declarator, global bool) *cast.VarDecl {
	vd := &cast.VarDecl{
		Name:       d.name,
		Type:       d.typ,
		Storage:    specs.storage,
		NameExtent: d.nameExtent,
		Global:     global,
	}
	kind := cast.SymVar
	if _, ok := ctype.Unqualify(d.typ).(*ctype.Func); ok {
		kind = cast.SymFunc
	}
	sym := p.declare(&cast.Symbol{
		Name:     d.name,
		Kind:     kind,
		Type:     d.typ,
		Storage:  specs.storage,
		Decl:     vd,
		IsGlobal: global,
	})
	vd.Sym = sym
	return vd
}

func (p *Parser) parseFuncDefBody(start ctoken.Pos, specs declSpecs, d declarator, ft *ctype.Func) *cast.FuncDef {
	fd := &cast.FuncDef{
		Name:       d.name,
		Type:       ft,
		Storage:    specs.storage,
		NameExtent: d.nameExtent,
		Variadic:   ft.Variadic,
	}
	sym := p.declare(&cast.Symbol{
		Name:     d.name,
		Kind:     cast.SymFunc,
		Type:     ft,
		Storage:  specs.storage,
		Decl:     fd,
		IsGlobal: true,
	})
	fd.Sym = sym

	p.pushScope()
	for _, param := range d.params {
		if param.Name == "" {
			fd.Params = append(fd.Params, param)
			continue
		}
		psym := p.declare(&cast.Symbol{
			Name: param.Name,
			Kind: cast.SymParam,
			Type: param.Type,
			Decl: param,
		})
		param.Sym = psym
		fd.Params = append(fd.Params, param)
	}
	lo := p.nextID
	fd.Body = p.parseCompoundStmt()
	p.unit.Bodies = append(p.unit.Bodies, cast.SymRange{Lo: lo, Hi: p.nextID})
	p.popScope()
	fd.SetExtent(ctoken.Extent{Pos: start, End: fd.Body.Extent().End})
	return fd
}
