package cparse

import (
	"errors"
	"strings"

	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/ctoken"
	"repro/internal/ctype"
)

// ErrDeclined is ParseFunc's answer when it cannot tell what a whole
// parse of the edited text would give; the caller parses the whole unit
// instead.
var ErrDeclined = errors.New("cparse: function re-parse declined")

// ParseFunc re-parses the body of unit.Funcs[fi] after an edit that lies
// strictly inside the body's braces. file holds the edited text of the
// whole unit, and body is the extent of the function's braces in it.
//
// The parse starts in the state a whole parse of the text is in at the
// body's opening brace. The file scope is rebuilt from the unit: the
// names of Symbols in ID order up to the body's range, leaving out the
// parameters and the ranges of earlier bodies, and the Tags bound before
// the function. The parameters bind to their retained symbols. New
// symbols are numbered from the start of the body's old range, as a
// whole parse numbers them.
//
// It returns the new body and the symbols bound in it, or the error a
// whole parse of the text returns. It returns ErrDeclined instead when
// the result could differ from a whole parse's:
//   - the body's text does not lex cleanly on its own;
//   - the parse does not end exactly at the closing brace, fails at the
//     end of the tokens, or looks past them;
//   - the body defines a record under a tag bound outside it;
//   - a record bound at file scope has members now that it did not have
//     at the function, and the body could read its size.
func ParseFunc(unit *cast.TranslationUnit, fi int, file *ctoken.File, body ctoken.Extent) (*cast.CompoundStmt, []*cast.Symbol, error) {
	funcParses.Add(1)
	if fi < 0 || fi >= len(unit.Funcs) || len(unit.Bodies) != len(unit.Funcs) ||
		!body.IsValid() || int(body.End) > file.Size() {
		return nil, nil, ErrDeclined
	}
	// A copy of the body's text: the new nodes outlive this edit's text,
	// and slices of it would keep the whole text alive.
	src := strings.Clone(file.Src()[body.Pos:body.End])
	toks, err := clex.TokenizeForParser(src)
	last := len(toks) - 1 // the EOF token
	if err != nil || last < 2 || !toks[0].Is("{") || !toks[last-1].Is("}") ||
		toks[last-1].Extent.End != ctoken.Pos(len(src)) {
		return nil, nil, ErrDeclined
	}
	sizeof := false
	for i := range toks {
		toks[i].Extent.Pos += body.Pos
		toks[i].Extent.End += body.Pos
		sizeof = sizeof || toks[i].IsKeyword("sizeof")
	}
	fileScope, ok := fileScopeAt(unit, fi, sizeof)
	if !ok {
		return nil, nil, ErrDeclined
	}
	params := &scope{names: make(map[string]*cast.Symbol)}
	for _, prm := range unit.Funcs[fi].Params {
		if _, dup := params.names[prm.Name]; prm.Sym != nil && !dup {
			params.names[prm.Name] = prm.Sym
		}
	}
	p := &Parser{
		file:   file,
		src:    src,
		base:   body.Pos,
		toks:   toks,
		unit:   &cast.TranslationUnit{},
		nextID: unit.Bodies[fi].Lo,
		// The builtins are part of the rebuilt file scope; their own
		// scope stays, empty, so the depth is a whole parse's.
		scopes: []*scope{{}, fileScope, params},
		seeded: 3,
	}
	var cs *cast.CompoundStmt
	err = p.recoverable(func() { cs = p.parseCompoundStmt() })
	switch {
	case errors.Is(err, ErrDeclined), p.peekedEOF,
		err != nil && p.pos >= last, err == nil && p.pos != last:
		return nil, nil, ErrDeclined
	case err != nil:
		return nil, nil, err
	}
	return cs, p.unit.Symbols, nil
}

// fileScopeAt rebuilds the file scope as a whole parse has it at the
// start of unit.Funcs[fi]'s body. It reports false when a record bound
// there is complete now but was not then — its definition comes later,
// or a function body completed it — and the body could read its size
// (sizeof) or the record's completion is not at file scope.
func fileScopeAt(unit *cast.TranslationUnit, fi int, sizeof bool) (*scope, bool) {
	s := &scope{names: make(map[string]*cast.Symbol), tags: make(map[string]ctype.Type)}
	from := 0
	for _, r := range unit.Bodies[:fi+1] {
		for _, sym := range unit.Symbols[from:r.Lo] {
			if sym.Kind != cast.SymParam {
				s.names[sym.Name] = sym
			}
		}
		from = r.Hi
	}
	defined := make(map[ctype.Type]bool)
	definedLater := make(map[ctype.Type]bool)
	for _, b := range unit.Tags {
		switch {
		case b.Funcs > fi:
			definedLater[b.Type] = definedLater[b.Type] || b.Def
		default:
			s.tags[b.Key] = b.Type
			defined[b.Type] = defined[b.Type] || b.Def
		}
	}
	for _, t := range s.tags {
		if r, ok := t.(*ctype.Record); ok && r.Complete && !defined[t] && (sizeof || !definedLater[t]) {
			return nil, false
		}
	}
	return s, true
}
