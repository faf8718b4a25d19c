package analysis

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/ctoken"
	"repro/internal/obs"
	"repro/internal/pointsto"
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
//
// A function's local hash is every input above but the closure. With
// Config.Hashes set, the text and declaration inputs of functions an
// edit did not touch come from the HashMemo. A snapshot from a function
// parse (ParseFuncCtx) also reuses its predecessor's local hash for
// every function but the edited one when the edit provably left every
// alias fingerprint as it was (hashCarry.holds): then only the edited
// function's local hash is computed, and the closure step recomputes
// only the closed hashes that local hash enters (hashCarry.reclose).
// Either way the values are those a fresh FuncHashes computes.
func (s *Snapshot) FuncHashes() map[string]string {
	s.hashOnce.Do(func() {
		// Aliases (and through it points-to) must be solved before
		// fingerprinting; CallGraph drives the closure step.
		s.Aliases()
		s.CallGraph()
		sp := s.span(obs.StageHashes)
		defer sp.End()
		s.funcHashes = s.computeFuncHashes()
		// The predecessor's facts have served their one purpose: a
		// session of many edits holds one points-to graph, not a chain.
		s.carry = nil
		s.hashed.Store(true)
		sp.Attr("funcs", fmt.Sprint(len(s.funcHashes)))
	})
	return s.funcHashes
}

// localHashes counts the local hashes computed process-wide (each one an
// alias fingerprint), so tests can pin how many an edit recomputes.
var localHashes atomic.Int64

// LocalHashes returns the number of function local hashes computed
// since process start; a reused one does not count.
func LocalHashes() int64 { return localHashes.Load() }

// closedHashes counts the closed hashes computed process-wide, so tests
// can pin how many an edit recomputes.
var closedHashes atomic.Int64

// ClosedHashes returns the number of dependency hashes completed by the
// call-graph closure step since process start; one copied from the
// predecessor does not count.
func ClosedHashes() int64 { return closedHashes.Load() }

// hashCarry is what a function-parse snapshot inherits from its
// predecessor's FuncHashes: the predecessor's points-to graph, alias
// sets, local and closed hashes, and the edited body's symbols and
// callee names as the predecessor had them.
type hashCarry struct {
	fi      int
	pt      *pointsto.Graph
	aliases *pointsto.AliasSets
	locals  []localHash
	hashes  map[string]string
	syms    []*cast.Symbol
	callees []string
}

// localHash is a function's local hash: every input of its dependency
// hash but the callee closure.
type localHash [sha256.Size]byte

// carryFor returns what a function parse of s's function fi inherits
// from s's FuncHashes, syms being the body's symbols in s; nil when
// FuncHashes has not run.
func (s *Snapshot) carryFor(fi int, syms []*cast.Symbol) *hashCarry {
	if !s.hashed.Load() || s.locals == nil {
		return nil
	}
	s.walkMu.Lock()
	calls := s.walks[fi].calls
	s.walkMu.Unlock()
	callees := make([]string, len(calls))
	for i, call := range calls {
		callees[i] = call.Callee()
	}
	return &hashCarry{fi: fi, pt: s.pt, aliases: s.aliases, locals: s.locals,
		hashes: s.funcHashes, syms: syms, callees: callees}
}

// symbolsHold reports whether the edited body's symbols keep their
// count, so no symbol was renumbered, and each its name, globalness,
// declaration and declared size, so each renders the tag its
// counterpart of the same ID rendered. PointsTo reuses the
// predecessor's solution only then (pointsto.Reanalyze).
func (c *hashCarry) symbolsHold(s *Snapshot) bool {
	r := s.unit.Bodies[c.fi]
	syms := s.unit.Symbols[r.Lo:r.Hi]
	if len(syms) != len(c.syms) {
		return false
	}
	for i, sym := range syms {
		was := c.syms[i]
		if sym.Name != was.Name || sym.IsGlobal != was.IsGlobal ||
			(sym.Decl == nil) != (was.Decl == nil) || declSize(sym) != declSize(was) {
			return false
		}
	}
	return true
}

// holds reports whether the predecessor's local hashes still hold for
// every function of s but the edited one. A retained function's local
// hash is its text-and-declaration prefix, which the HashMemo checks
// separately, followed by its alias fingerprint: the tags of the
// symbols it names, their alias and points-to sets, and its members'
// aliasing bits. Every symbol outside the edited body is the
// predecessor's own object. Those fingerprints are the predecessor's
// when PointsTo carried the predecessor's graph: the edited body's
// symbols hold (symbolsHold), and the system is the same constraint
// system over the same nodes (pointsto.Reanalyze), so every set and
// bit is the same by symbol ID.
func (c *hashCarry) holds(s *Snapshot) bool {
	s.PointsTo()
	return s.ptCarried
}

// reclose returns s's dependency hashes from the predecessor's when the
// edited function's local hash is the only one that may differ and its
// body calls the same names in the same order, so the call graph is
// the predecessor's: then only the edited function and its transitive
// callers, found through the call graph's callee index, have a closed
// hash to recompute (by closeOne). ok is false otherwise.
func (c *hashCarry) reclose(s *Snapshot, locals []localHash, closeOne func(name string) string) (out map[string]string, ok bool) {
	if len(locals) != len(c.locals) {
		return nil, false
	}
	for i := range locals {
		if i != c.fi && locals[i] != c.locals[i] {
			return nil, false
		}
	}
	calls := s.bodies()[c.fi].calls
	if len(calls) != len(c.callees) {
		return nil, false
	}
	for i, call := range calls {
		if call.Callee() != c.callees[i] {
			return nil, false
		}
	}
	out = maps.Clone(c.hashes)
	cg := s.CallGraph()
	name := s.unit.Funcs[c.fi].Name
	queue, seen := []string{name}, map[string]bool{name: true}
	for len(queue) > 0 {
		name, queue = queue[0], queue[1:]
		out[name] = closeOne(name)
		for _, e := range cg.CallsTo(name) {
			if caller := e.Caller.Name; !seen[caller] {
				seen[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return out, true
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

// textFunc returns the hash's canonical spelling of an extent and the
// set of identifier spellings in it (unitText.text's contract).
type textFunc func(ctoken.Extent) (norm string, idents map[string]bool)

// HashMemo carries the inputs of FuncHashes from one snapshot of an
// edited unit to the next, so that an edit re-derives the hash inputs of
// the functions it touched and no others. Values stay exactly those a
// fresh FuncHashes computes.
//
// A function's normalized text and declaration closure are reused when
// its raw extent text is unchanged and so is the raw text of every
// file-scope declaration, in order; the memo keeps, per function, the
// marshalled sha256 state after norm‖0‖declClosure‖0, keyed by the raw
// text itself (a substring of the source the owner retains anyway). Any
// change to a file-scope declaration falls back to one whole-unit pass.
//
// A function whose prefix the memo holds keeps its predecessor's whole
// local hash when the snapshot inherits one that still holds
// (hashCarry); every other function's alias fingerprint is computed and
// completes its local hash. The call-graph closure is recomputed for
// every function unless the inherited closed hashes provably hold for
// all but the edited function and its callers (hashCarry.reclose).
//
// A memo belongs to one owner (an incremental session) and is threaded
// through Config.Hashes; batch paths leave it nil. Safe for concurrent
// use.
type HashMemo struct {
	mu sync.Mutex
	// decls is the raw text of each file-scope declaration of the last
	// unit, in order; index is built from it.
	decls []string
	index *declIndex
	// funcs maps a function's raw extent text to its hash state after
	// the text and declaration-closure inputs.
	funcs map[string][]byte
	// normalized counts the function extents the last computation had
	// to normalize (work accounting for tests).
	normalized int
}

// NewHashMemo returns an empty memo; the first computation through it
// takes the whole-unit pass.
func NewHashMemo() *HashMemo { return &HashMemo{} }

// hash computes s's local hashes, by index in unit.Funcs, reusing and
// then replacing the memo's state; carry, when non-nil, holds for s.
func (m *HashMemo) hash(s *Snapshot, carry *hashCarry) []localHash {
	m.mu.Lock()
	defer m.mu.Unlock()
	src := s.unit.File.Src()
	decls := s.fileDecls()
	raws := make([]string, len(decls))
	for i, d := range decls {
		raws[i] = rawText(src, d.Extent())
	}
	old := m.funcs
	text := textFunc(func(e ctoken.Extent) (string, map[string]bool) {
		// Only the extents that miss below are lexed, each on its own.
		raw := rawText(src, e)
		return lexUnit(raw).text(ctoken.Extent{End: ctoken.Pos(len(raw))})
	})
	if m.index == nil || !slices.Equal(raws, m.decls) {
		old = nil
		text = lexUnit(src).text
		m.index = indexDecls(decls, text)
	}
	m.decls = raws
	m.funcs = make(map[string][]byte, len(s.unit.Funcs))
	m.normalized = 0
	local := s.fingerprints()
	locals := make([]localHash, len(s.unit.Funcs))
	for i, fn := range s.unit.Funcs {
		raw := rawText(src, fn.Extent())
		st, hit := old[raw]
		if hit && carry != nil && i != carry.fi {
			m.funcs[raw] = st
			locals[i] = carry.locals[i]
			continue
		}
		h := sha256.New()
		if hit {
			if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(st); err == nil {
				m.funcs[raw] = st
				locals[i] = local(h, i)
				continue
			}
			h.Reset()
		}
		m.normalized++
		norm, idents := text(fn.Extent())
		m.index.writePrefix(h, norm, idents)
		if st, err := h.(encoding.BinaryMarshaler).MarshalBinary(); err == nil {
			m.funcs[raw] = st
		}
		locals[i] = local(h, i)
	}
	return locals
}

// rawText is the source text of e, or "" for an extent outside src
// (which unitText.text normalizes to "" as well).
func rawText(src string, e ctoken.Extent) string {
	if !e.IsValid() || int(e.End) > len(src) {
		return ""
	}
	return src[e.Pos:e.End]
}

// computeFuncHashes computes every function's dependency hash. Through
// a HashMemo it keeps the local hashes for a function-parse successor
// (s.locals); a snapshot without one has no successor to serve.
func (s *Snapshot) computeFuncHashes() map[string]string {
	if s.unit.File == nil {
		return map[string]string{}
	}
	m := s.conf.Hashes
	if m == nil {
		return s.hashFuncs(lexUnit(s.unit.File.Src()).text)
	}
	carry := s.carry
	if carry != nil && !carry.holds(s) {
		carry = nil
	}
	s.locals = m.hash(s, carry)
	return s.closeHashes(s.locals)
}

// hashFuncs computes every function's dependency hash, taking the
// normalized text and identifier set of each extent from text.
func (s *Snapshot) hashFuncs(text textFunc) map[string]string {
	idx := indexDecls(s.fileDecls(), text)
	local := s.fingerprints()
	locals := make([]localHash, len(s.unit.Funcs))
	for i, fn := range s.unit.Funcs {
		h := sha256.New()
		norm, idents := text(fn.Extent())
		idx.writePrefix(h, norm, idents)
		locals[i] = local(h, i)
	}
	return s.closeHashes(locals)
}

// fileDecls lists the file-scope declarations other than function
// definitions, in source order.
func (s *Snapshot) fileDecls() []cast.Decl {
	out := make([]cast.Decl, 0, len(s.unit.Decls)-len(s.unit.Funcs))
	for _, d := range s.unit.Decls {
		if _, isFn := d.(*cast.FuncDef); !isFn {
			out = append(out, d)
		}
	}
	return out
}

// fingerprints returns the completion of local hashes: given h, which
// has consumed function i's text and declaration-closure inputs, it
// writes the function's alias fingerprint, from the snapshot's body
// walks and alias sets, and returns the function's local hash.
func (s *Snapshot) fingerprints() func(h hash.Hash, i int) localHash {
	walks, tags := s.bodies(), newSymTags(s.unit, s.Aliases())
	return func(h hash.Hash, i int) (sum localHash) {
		localHashes.Add(1)
		h.Write([]byte(tags.aliasFingerprint(s.unit.Funcs[i], walks[i])))
		h.Sum(sum[:0])
		return sum
	}
}

// closeHashes folds each function's transitive callees' local hashes
// into its own (the call-graph closure step), by name; every local hash
// enters as its hex spelling. A function-parse snapshot recomputes only
// what its edit can change (hashCarry.reclose).
func (s *Snapshot) closeHashes(locals []localHash) map[string]string {
	// A name defined twice resolves to its last definition.
	index := make(map[string]int, len(locals))
	for i, fn := range s.unit.Funcs {
		index[fn.Name] = i
	}
	var spelled [2 * sha256.Size]byte
	var sum localHash
	writeLocal := func(h hash.Hash, i int) {
		hex.Encode(spelled[:], locals[i][:])
		h.Write(spelled[:])
	}
	cg := s.CallGraph()
	closeOne := func(name string) string {
		closedHashes.Add(1)
		h := sha256.New()
		writeLocal(h, index[name])
		for _, callee := range cg.TransitiveCallees(name) {
			h.Write([]byte{0})
			h.Write([]byte(callee))
			h.Write([]byte{'='})
			// External callees (no definition in the unit) contribute
			// their name alone: their behavior is a fixed model.
			if i, ok := index[callee]; ok {
				writeLocal(h, i)
			}
		}
		return hex.EncodeToString(h.Sum(sum[:0]))
	}
	if c := s.carry; c != nil {
		if out, ok := c.reclose(s, locals, closeOne); ok {
			return out
		}
	}
	out := make(map[string]string, len(index))
	for name := range index {
		out[name] = closeOne(name)
	}
	return out
}

type declInfo struct {
	norm string
	// idents are the identifier spellings in the declaration, sorted.
	idents []string
}

// declIndex holds the file-scope declarations (everything but function
// definitions) with an index by every identifier occurring in them.
// Linking is by name and over-approximate on purpose: a false dependency
// costs one spurious re-analysis, a missed one costs a stale finding.
type declIndex struct {
	decls   []declInfo
	byIdent map[string][]int
}

func indexDecls(decls []cast.Decl, text textFunc) *declIndex {
	idx := &declIndex{decls: make([]declInfo, len(decls)), byIdent: make(map[string][]int)}
	// A HashMemo keeps the index across edits, so each identifier is
	// copied out of the text once: a slice of it would keep the whole
	// text alive.
	interned := make(map[string]string)
	for i, d := range decls {
		norm, idents := text(d.Extent())
		names := make([]string, 0, len(idents))
		for id := range idents {
			name, ok := interned[id]
			if !ok {
				name = strings.Clone(id)
				interned[id] = name
			}
			names = append(names, name)
			idx.byIdent[name] = append(idx.byIdent[name], i)
		}
		sort.Strings(names)
		idx.decls[i] = declInfo{norm: norm, idents: names}
	}
	return idx
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writePrefix writes a function's text and declaration-closure inputs,
// norm‖0‖declClosure‖0, to h.
func (idx *declIndex) writePrefix(h hash.Hash, norm string, idents map[string]bool) {
	h.Write([]byte(norm))
	h.Write([]byte{0})
	h.Write([]byte(idx.closure(idents)))
	h.Write([]byte{0})
}

// closure resolves the identifiers a function mentions to file-scope
// declarations, transitively, and concatenates their normalized texts in
// declaration order.
func (idx *declIndex) closure(idents map[string]bool) string {
	included := make(map[int]bool)
	queue := sortedKeys(idents)
	seen := make(map[string]bool, len(idents))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		for _, i := range idx.byIdent[id] {
			if included[i] {
				continue
			}
			included[i] = true
			for _, dep := range idx.decls[i].idents {
				if !seen[dep] {
					queue = append(queue, dep)
				}
			}
		}
	}
	order := make([]int, 0, len(included))
	for i := range included {
		order = append(order, i)
	}
	sort.Ints(order)
	var sb strings.Builder
	for _, i := range order {
		sb.WriteString(idx.decls[i].norm)
		sb.WriteByte(0)
	}
	return sb.String()
}

// symTags renders symbols parse-stably for the alias fingerprint, each
// at most once per snapshot: tag[ID] is name@owner#size, and full[ID]
// adds the symbol's alias-set and points-to-set membership. The owner is
// "g" for globals and the containing function's name for locals and
// parameters. Every symbol is in unit.Symbols at index Symbol.ID.
type symTags struct {
	unit    *cast.TranslationUnit
	aliases *pointsto.AliasSets
	tag     []string
	full    []string
}

func newSymTags(unit *cast.TranslationUnit, aliases *pointsto.AliasSets) *symTags {
	return &symTags{
		unit:    unit,
		aliases: aliases,
		tag:     make([]string, len(unit.Symbols)),
		full:    make([]string, len(unit.Symbols)),
	}
}

// symTag renders a symbol: name, owner, and declared size.
func (t *symTags) symTag(sym *cast.Symbol) string {
	if tag := t.tag[sym.ID]; tag != "" {
		return tag
	}
	owner := ""
	if sym.IsGlobal {
		owner = "g"
	} else if sym.Decl != nil {
		if fn := t.unit.FuncAt(sym.Decl.Extent().Pos); fn != nil {
			owner = fn.Name
		}
	}
	t.tag[sym.ID] = sym.Name + "@" + owner + "#" + strconv.Itoa(declSize(sym))
	return t.tag[sym.ID]
}

// declSize is the size of sym's declared type, or -1 without one.
func declSize(sym *cast.Symbol) int {
	if sym.Type == nil {
		return -1
	}
	return sym.Type.Size()
}

// fullTag renders a symbol with its alias-set and points-to-set
// membership.
func (t *symTags) fullTag(sym *cast.Symbol) string {
	if tag := t.full[sym.ID]; tag != "" {
		return tag
	}
	t.full[sym.ID] = t.symTag(sym) + ":a=" + t.setTag(t.aliases.AliasSetOf(sym)) +
		":p=" + t.setTag(t.aliases.PointeesOf(sym))
	return t.full[sym.ID]
}

// setTag renders a symbol set parse-stably, sorted.
func (t *symTags) setTag(set []*cast.Symbol) string {
	tags := make([]string, 0, len(set))
	for _, sym := range set {
		if sym != nil {
			tags = append(tags, t.symTag(sym))
		}
	}
	sort.Strings(tags)
	return strings.Join(tags, ",")
}

// aliasFingerprint serializes the slice of the whole-unit points-to
// results that fn's analyses can observe: for every symbol fn
// references (its parameters and the symbols its body w names), its
// alias-set and points-to-set membership, and for every member access,
// the member-aliasing bit.
func (t *symTags) aliasFingerprint(fn *cast.FuncDef, w *bodyWalk) string {
	tags := make([]string, 0, len(fn.Params)+len(w.refs)+len(w.members))
	seen := make(map[int]bool, len(fn.Params)+len(w.refs))
	add := func(sym *cast.Symbol) {
		if !seen[sym.ID] {
			seen[sym.ID] = true
			tags = append(tags, t.fullTag(sym))
		}
	}
	for _, p := range fn.Params {
		if p.Sym != nil {
			add(p.Sym)
		}
	}
	for _, sym := range w.refs {
		add(sym)
	}
	for _, m := range w.members {
		tags = append(tags, t.symTag(m.base)+"."+m.member+":m="+
			strconv.FormatBool(t.aliases.IsAliasedMember(m.base, m.member)))
	}
	sort.Strings(tags)
	return strings.Join(tags, ";")
}
