package analysis

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/cast"
	"repro/internal/interproc"
)

// bodyWalk is what one walk of a function body gives the whole-unit
// facts that read bodies: its call expressions (the call graph), its
// may-modify summary (interproc), and the symbols and member accesses
// its alias fingerprint renders (FuncHashes). It holds nodes, symbols,
// parameter indices and names, but no positions or IDs. A function parse
// keeps every other body's nodes and symbols and shifts them in place,
// so the walk of every retained body stays exact in its successor.
type bodyWalk struct {
	// body is the walked body; a walk is used only for it.
	body  *cast.CompoundStmt
	calls []*cast.CallExpr
	mods  interproc.Summary
	// refs are the distinct symbols the body names.
	refs []*cast.Symbol
	// members are the body's member accesses on a named base, one per
	// occurrence.
	members []memberRef
}

// memberRef is one s.m or p->m access.
type memberRef struct {
	base   *cast.Symbol
	member string
}

// bodyWalks counts body walks process-wide, so tests can pin how
// many bodies an edit walks.
var bodyWalks atomic.Int64

// BodyWalks returns the number of function bodies walked for the call
// graph, may-modify summaries and alias fingerprints since process
// start.
func BodyWalks() int64 { return bodyWalks.Load() }

// walker walks bodies into bodyWalks, collecting into buffers it
// reuses from body to body, so that a walk allocates only what it keeps.
type walker struct {
	mods    interproc.Summarizer
	calls   []*cast.CallExpr
	refs    []*cast.Symbol
	members []memberRef
}

// walk walks fn's body once for everything a bodyWalk holds.
func (k *walker) walk(fn *cast.FuncDef) *bodyWalk {
	bodyWalks.Add(1)
	k.mods.Reset(fn)
	k.calls, k.refs, k.members = k.calls[:0], k.refs[:0], k.members[:0]
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		k.mods.Visit(n)
		switch x := n.(type) {
		case *cast.CallExpr:
			k.calls = append(k.calls, x)
		case *cast.Ident:
			if x.Sym != nil {
				k.refs = append(k.refs, x.Sym)
			}
		case *cast.MemberExpr:
			if id, ok := cast.Unparen(x.Base).(*cast.Ident); ok && id.Sym != nil {
				k.members = append(k.members, memberRef{base: id.Sym, member: x.Member})
			}
		}
		return true
	})
	slices.SortFunc(k.refs, func(a, b *cast.Symbol) int { return cmp.Compare(a.ID, b.ID) })
	return &bodyWalk{
		body:    fn.Body,
		calls:   exact(k.calls),
		mods:    k.mods.Summary(),
		refs:    exact(slices.Compact(k.refs)),
		members: exact(k.members),
	}
}

// exact copies s into a slice of its own with no spare capacity (nil
// when s is empty): a session keeps walks as long as their bodies live.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// bodies returns the walk of every function body, by index in
// unit.Funcs, walking each body that has none yet: all of them for a
// parsed unit, only the edited one after a function parse.
func (s *Snapshot) bodies() []*bodyWalk {
	s.walkMu.Lock()
	defer s.walkMu.Unlock()
	if s.walks == nil {
		s.walks = make([]*bodyWalk, len(s.unit.Funcs))
	}
	var k walker
	for i, fn := range s.unit.Funcs {
		if w := s.walks[i]; w == nil || w.body != fn.Body {
			s.walks[i] = k.walk(fn)
		}
	}
	return s.walks
}

// inheritWalks returns a copy of s's body walks with fi's left out, for
// a function parse of fi whose snapshot keeps every other body.
func (s *Snapshot) inheritWalks(fi int) []*bodyWalk {
	s.walkMu.Lock()
	defer s.walkMu.Unlock()
	if s.walks == nil {
		return nil
	}
	walks := slices.Clone(s.walks)
	walks[fi] = nil
	return walks
}
