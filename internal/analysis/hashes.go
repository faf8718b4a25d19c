package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/ctoken"
	"repro/internal/obs"
)

// FuncHashes returns one dependency hash per function definition, keyed
// by function name — the invalidation currency of incremental sessions
// (internal/incremental) and the cross-run oracle memo (overflow.Memo).
//
// A function's hash covers every input its oracle findings can depend
// on:
//
//   - its own token text, with comments masked and whitespace collapsed,
//     so reformatting and comment edits never invalidate;
//   - the file-scope declarations it references, transitively — a
//     typedef, struct definition, global or prototype mentioned by name
//     anywhere in the function's tokens (or in an already-included
//     declaration) contributes its normalized text, so editing a shared
//     struct invalidates every user;
//   - its alias environment — for each symbol the function references,
//     the membership of its whole-unit alias set, its points-to set and
//     the member-aliasing bits of the struct members the function
//     accesses, because buffer-length and reaching-definitions facts
//     consume whole-unit points-to results that edits elsewhere in the
//     file can shift;
//   - its transitive callees' local hashes (the call-graph closure),
//     because interprocedural seeds, may-modify summaries and
//     allocation-sink discovery let a callee's body change this
//     function's findings.
//
// Equal hash therefore implies byte-identical per-function findings; an
// edit invalidates exactly the functions whose closures it touches.
func (s *Snapshot) FuncHashes() map[string]string {
	s.hashOnce.Do(func() {
		// Aliases (and through it points-to) must be solved before
		// fingerprinting; CallGraph drives the closure step.
		s.Aliases()
		s.CallGraph()
		sp := s.span(obs.StageHashes)
		defer sp.End()
		s.funcHashes = s.computeFuncHashes()
		sp.Attr("funcs", fmt.Sprint(len(s.funcHashes)))
	})
	return s.funcHashes
}

// unitText serves the hash inputs of any extent of a unit from one lex
// of its whole text. The unit parsed, so the text lexes without error,
// and every extent a parser node carries starts and ends on token
// boundaries: the tokens inside an extent are exactly those a lex of the
// extent's text alone would give.
type unitText struct {
	src  string
	toks []ctoken.Token
}

func lexUnit(src string) unitText {
	toks, _ := clex.Tokenize(src)
	return unitText{src: src, toks: toks}
}

// text returns the hash's canonical spelling of the extent — comments
// masked, whitespace runs (strings.Fields' spaces) collapsed to one
// space, both ends trimmed — and the set of identifier spellings in it.
func (u unitText) text(e ctoken.Extent) (norm string, idents map[string]bool) {
	if !e.IsValid() || int(e.End) > len(u.src) {
		return "", nil
	}
	lo := sort.Search(len(u.toks), func(i int) bool { return u.toks[i].Extent.Pos >= e.Pos })
	var sb strings.Builder
	sb.Grow(e.Len())
	space := false
	write := func(seg string) {
		for i := 0; i < len(seg); {
			r, size := rune(seg[i]), 1
			if r >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(seg[i:])
			}
			if unicode.IsSpace(r) {
				space = true
			} else {
				if space && sb.Len() > 0 {
					sb.WriteByte(' ')
				}
				space = false
				sb.WriteString(seg[i : i+size])
			}
			i += size
		}
	}
	idents = make(map[string]bool)
	cursor := e.Pos
	for _, t := range u.toks[lo:] {
		if t.Kind == ctoken.KindEOF || t.Extent.End > e.End {
			break
		}
		switch t.Kind {
		case ctoken.KindIdent:
			idents[t.Text] = true
		case ctoken.KindComment:
			write(u.src[cursor:t.Extent.Pos])
			space = true
			cursor = t.Extent.End
		}
	}
	write(u.src[cursor:e.End])
	return sb.String(), idents
}

type declInfo struct {
	norm   string
	idents map[string]bool
}

func (s *Snapshot) computeFuncHashes() map[string]string {
	file := s.unit.File
	if file == nil {
		return map[string]string{}
	}
	return s.hashFuncs(lexUnit(file.Src()).text)
}

// hashFuncs computes every function's dependency hash, taking the
// normalized text and identifier set of each extent from text.
func (s *Snapshot) hashFuncs(text func(ctoken.Extent) (string, map[string]bool)) map[string]string {
	// Index the file-scope declarations (everything but function
	// definitions) by every identifier occurring in them. Linking is by
	// name and over-approximate on purpose: a false dependency costs one
	// spurious re-analysis, a missed one costs a stale finding.
	var decls []declInfo
	declsByIdent := make(map[string][]int)
	for _, d := range s.unit.Decls {
		if _, isFn := d.(*cast.FuncDef); isFn {
			continue
		}
		var di declInfo
		di.norm, di.idents = text(d.Extent())
		idx := len(decls)
		decls = append(decls, di)
		for id := range di.idents {
			declsByIdent[id] = append(declsByIdent[id], idx)
		}
	}

	owner := s.symbolOwners()

	// Local hashes first; the closure step below folds callees in.
	local := make(map[string]string, len(s.unit.Funcs))
	for _, fn := range s.unit.Funcs {
		norm, idents := text(fn.Extent())
		h := sha256.New()
		h.Write([]byte(norm))
		h.Write([]byte{0})
		h.Write([]byte(s.declClosure(idents, decls, declsByIdent)))
		h.Write([]byte{0})
		h.Write([]byte(s.aliasFingerprint(fn, owner)))
		local[fn.Name] = hex.EncodeToString(h.Sum(nil))
	}

	cg := s.CallGraph()
	out := make(map[string]string, len(local))
	for _, fn := range s.unit.Funcs {
		h := sha256.New()
		h.Write([]byte(local[fn.Name]))
		for _, callee := range cg.TransitiveCallees(fn.Name) {
			h.Write([]byte{0})
			h.Write([]byte(callee))
			h.Write([]byte{'='})
			// External callees (no definition in the unit) contribute
			// their name alone: their behavior is a fixed model.
			h.Write([]byte(local[callee]))
		}
		out[fn.Name] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// declClosure resolves the identifiers a function mentions to file-scope
// declarations, transitively, and concatenates their normalized texts in
// declaration order.
func (s *Snapshot) declClosure(idents map[string]bool, decls []declInfo, byIdent map[string][]int) string {
	included := make(map[int]bool)
	queue := make([]string, 0, len(idents))
	for id := range idents {
		queue = append(queue, id)
	}
	sort.Strings(queue)
	seen := make(map[string]bool, len(idents))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		for _, idx := range byIdent[id] {
			if included[idx] {
				continue
			}
			included[idx] = true
			next := make([]string, 0, len(decls[idx].idents))
			for dep := range decls[idx].idents {
				if !seen[dep] {
					next = append(next, dep)
				}
			}
			sort.Strings(next)
			queue = append(queue, next...)
		}
	}
	order := make([]int, 0, len(included))
	for idx := range included {
		order = append(order, idx)
	}
	sort.Ints(order)
	var sb strings.Builder
	for _, idx := range order {
		sb.WriteString(decls[idx].norm)
		sb.WriteByte(0)
	}
	return sb.String()
}

// symbolOwners maps each symbol ID to a parse-stable owner tag: "g" for
// globals, the containing function's name for locals and parameters.
func (s *Snapshot) symbolOwners() map[int]string {
	owner := make(map[int]string, len(s.unit.Symbols))
	for _, sym := range s.unit.Symbols {
		if sym == nil {
			continue
		}
		if sym.IsGlobal {
			owner[sym.ID] = "g"
			continue
		}
		if sym.Decl != nil {
			p := sym.Decl.Extent().Pos
			for _, fn := range s.unit.Funcs {
				e := fn.Extent()
				if p >= e.Pos && p < e.End {
					owner[sym.ID] = fn.Name
					break
				}
			}
		}
	}
	return owner
}

// symTag renders a symbol parse-stably: name, owner, and declared size.
func symTag(sym *cast.Symbol, owner map[int]string) string {
	size := -1
	if sym.Type != nil {
		size = sym.Type.Size()
	}
	return fmt.Sprintf("%s@%s#%d", sym.Name, owner[sym.ID], size)
}

// aliasFingerprint serializes the slice of the whole-unit points-to
// results that fn's analyses can observe: for every symbol fn
// references, its alias-set and points-to-set membership, and for every
// member access, the member-aliasing bit.
func (s *Snapshot) aliasFingerprint(fn *cast.FuncDef, owner map[int]string) string {
	aliases := s.Aliases()

	syms := make(map[int]*cast.Symbol)
	type memberUse struct {
		sym    *cast.Symbol
		member string
	}
	var members []memberUse
	collect := func(e cast.Expr) bool {
		switch x := e.(type) {
		case *cast.Ident:
			if x.Sym != nil {
				syms[x.Sym.ID] = x.Sym
			}
		case *cast.MemberExpr:
			if id, ok := cast.Unparen(x.Base).(*cast.Ident); ok && id.Sym != nil {
				members = append(members, memberUse{id.Sym, x.Member})
			}
		}
		return true
	}
	for _, p := range fn.Params {
		if p.Sym != nil {
			syms[p.Sym.ID] = p.Sym
		}
	}
	if fn.Body != nil {
		cast.Inspect(fn.Body, func(n cast.Node) bool {
			if e, ok := n.(cast.Expr); ok {
				collect(e)
			}
			return true
		})
	}

	tags := make([]string, 0, len(syms))
	for _, sym := range syms {
		var sb strings.Builder
		sb.WriteString(symTag(sym, owner))
		sb.WriteString(":a=")
		sb.WriteString(symSetTag(aliases.AliasSetOf(sym), owner))
		sb.WriteString(":p=")
		sb.WriteString(symSetTag(aliases.PointeesOf(sym), owner))
		tags = append(tags, sb.String())
	}
	for _, mu := range members {
		tags = append(tags, fmt.Sprintf("%s.%s:m=%t",
			symTag(mu.sym, owner), mu.member, aliases.IsAliasedMember(mu.sym, mu.member)))
	}
	sort.Strings(tags)
	return strings.Join(tags, ";")
}

// symSetTag renders a symbol set parse-stably, sorted.
func symSetTag(set []*cast.Symbol, owner map[int]string) string {
	tags := make([]string, 0, len(set))
	for _, sym := range set {
		if sym != nil {
			tags = append(tags, symTag(sym, owner))
		}
	}
	sort.Strings(tags)
	return strings.Join(tags, ",")
}
