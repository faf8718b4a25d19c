// Package incremental holds edit-aware analysis sessions: a Session
// keeps the last parse of one C translation unit plus memoized
// per-function oracle facts, applies each edit batch as one minimized
// edit.Script in the current text's coordinates, and re-derives
// diagnostics for only the functions an edit actually touched. A client
// whose changes arrive in sequence (LSP didChange) folds them into one
// whole-text replacement first; Minimize shrinks it back to the bytes
// that changed.
//
// An edit whose deltas all lie strictly inside one function's body
// braces re-parses only that body against the retained unit
// (analysis.ParseFuncCtx) and shifts the later nodes, which the new
// snapshot shares with the old one; a failure after that puts them
// back. Any other edit, or one the function path declines, parses the
// whole unit. An edit that changes nothing parses nothing.
//
// The invalidation currency is the per-function dependency hash
// (analysis.Snapshot.FuncHashes): a function whose hash is unchanged
// after an edit gets its findings replayed from the cross-run memos
// (overflow.Memo) and its SLR/STR repair sites from the session's site
// memo, extents remapped through the edit's offset mapper,
// byte-identical to a fresh run. The hashes themselves are recomputed
// through an analysis.HashMemo that re-normalizes only the functions
// whose text changed; after a function parse the new snapshot also
// inherits the old one's body walks and, when points-to did not move,
// its local hashes. The transformers re-run over only the functions
// whose sites could not be replayed. Everything the session
// returns — findings and repair sites — therefore matches a
// from-scratch core.Analyze/core.Fix on the same text; the equivalence
// suites pin that property over randomized and per-class edit scripts.
//
// Both front ends sit on this package: cmd/cfixlsp (stdio LSP server)
// and cfixd's /v1/session endpoints.
package incremental

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/edit"
	"repro/internal/intflow"
	"repro/internal/obs"
	"repro/internal/overflow"
	"repro/internal/slr"
	"repro/internal/str"
)

// Config configures a session.
type Config struct {
	// Checks selects the lint oracles, as core.Options.Checks does:
	// "buf", "int", "all"; empty means "all" — a session exists to power
	// diagnostics, so it defaults to every oracle.
	Checks string
	// Backend names the SLR repair dialect candidate sites are reported
	// for ("glib" when empty; validated at Open).
	Backend string
	// Tracer, when non-nil, receives one StageIncremental span per edit
	// re-analysis plus the usual per-fact spans.
	Tracer *obs.Tracer
}

// SiteKind distinguishes the two repair families at a candidate site.
type SiteKind string

// Site kinds.
const (
	SiteSLR SiteKind = "slr" // safe library replacement at a call site
	SiteSTR SiteKind = "str" // safe type replacement of a variable
)

// Site is one SLR or STR repair candidate in session-compact form. It
// deliberately carries no raw source spellings (size expressions,
// refusal details): those quote exact whitespace, which the session's
// hash normalization ignores, so retaining them would let a replayed
// site drift from a fresh run after a formatting-only edit. Extent is
// kept in current-text coordinates across edits.
type Site struct {
	// Kind is SiteSLR or SiteSTR.
	Kind SiteKind `json:"kind"`
	// Function is the enclosing function.
	Function string `json:"function"`
	// Name is the unsafe callee (SLR) or the candidate variable (STR).
	Name string `json:"name"`
	// SafeName is the replacement the active backend would emit (SLR;
	// always "stralloc" for STR).
	SafeName string `json:"safe_name"`
	// Extent covers the call expression (SLR) or is a zero-width anchor
	// at the start of the variable's own declaration (STR).
	Extent ctoken.Extent `json:"extent"`
	// Eligible reports whether the transformation's preconditions hold.
	Eligible bool `json:"eligible"`
	// Reason is the precondition-failure class when !Eligible (the
	// buflen.FailReason / str.FailReason enum string, detail elided).
	Reason string `json:"reason,omitempty"`
}

// Counters is the session's incremental-work accounting, cumulative
// since Open.
type Counters struct {
	// EditsApplied counts Edit calls that validated and re-analyzed.
	EditsApplied int64 `json:"edits_applied"`
	// FuncsReanalyzed counts functions whose dependency hash changed
	// (or that were new) at an edit, forcing fresh derivation.
	FuncsReanalyzed int64 `json:"funcs_reanalyzed"`
	// FuncsReused counts functions whose hash was unchanged at an edit,
	// so their facts replayed from the memo.
	FuncsReused int64 `json:"funcs_reused"`
}

// Result is the outcome of Open or one Edit: the current text and the
// diagnostics derived from it.
type Result struct {
	// Text is the session text after the edit.
	Text string
	// Findings merges the selected oracles' findings in source order —
	// exactly what core.Analyze(Checks) returns on Text.
	Findings []overflow.Finding
	// Sites lists the SLR/STR repair candidates in source order.
	Sites []Site
	// FuncsReanalyzed / FuncsReused break down this edit's work (both
	// zero for Open, which derives everything).
	FuncsReanalyzed int
	FuncsReused     int
}

// Session is one open translation unit with retained analysis state.
// Methods are safe for concurrent use; edits serialize internally.
type Session struct {
	mu sync.Mutex

	name    string
	text    string
	conf    Config
	backend backend.Backend

	snap     *analysis.Snapshot
	hashes   map[string]string
	ovfMemo  *overflow.Memo
	intMemo  *overflow.Memo
	hashMemo *analysis.HashMemo

	findings []overflow.Finding
	// siteMemo holds each function's repair sites under its dependency
	// hash, in current-text coordinates; sites is their concatenation in
	// source order.
	siteMemo map[string][]trackedSite
	sites    []Site
	// discovered counts the functions the last Open or Edit ran site
	// discovery over (work accounting for tests).
	discovered int

	counters Counters
}

// trackedSite is a Site as the site memo keeps it, with the extent the
// remap tracks: the call (SLR) or the variable's whole declaration (STR),
// whose start is the site's anchor. Tracking the declaration rather than
// the zero-width anchor makes an insertion at the anchor (a comment
// before the declaration) shift the anchor as a fresh run would.
type trackedSite struct {
	Site
	span ctoken.Extent
}

// Open parses text and derives the initial diagnostics, retaining every
// fact for incremental reuse.
func Open(ctx context.Context, name, text string, conf Config) (*Session, *Result, error) {
	if conf.Checks == "" {
		conf.Checks = "all"
	}
	be, err := backend.Get(conf.Backend)
	if err != nil {
		return nil, nil, err
	}
	s := &Session{
		name:     name,
		conf:     conf,
		backend:  be,
		ovfMemo:  overflow.NewMemo(),
		intMemo:  overflow.NewMemo(),
		hashMemo: analysis.NewHashMemo(),
	}
	snap, err := analysis.ParseCtx(ctx, s.name, text, s.analysisConfig())
	if err != nil {
		return nil, nil, err
	}
	d, err := s.derive(snap, nil)
	if err != nil {
		return nil, nil, err
	}
	s.commit(text, snap, d)
	return s, &Result{Text: s.text, Findings: s.findings, Sites: append([]Site(nil), s.sites...)}, nil
}

// derived is what a session derives from one snapshot.
type derived struct {
	findings []overflow.Finding
	hashes   map[string]string
	siteMemo map[string][]trackedSite
	sites    []Site
}

// derive lints snap and derives its hashes and repair sites, reading
// the session's retained state but not changing it; mapper carries the
// retained sites into snap's coordinates (nil at Open).
func (s *Session) derive(snap *analysis.Snapshot, mapper *edit.Mapper) (derived, error) {
	var d derived
	var err error
	if d.findings, err = core.LintSnapshot(snap, s.conf.Checks); err != nil {
		return d, err
	}
	d.hashes = snap.FuncHashes()
	d.siteMemo, d.sites, err = s.sitesFor(snap, d.hashes, mapper)
	return d, err
}

// commit makes text, its snapshot and what was derived from it current.
func (s *Session) commit(text string, snap *analysis.Snapshot, d derived) {
	s.text, s.snap = text, snap
	s.findings, s.hashes, s.siteMemo, s.sites = d.findings, d.hashes, d.siteMemo, d.sites
}

// analysisConfig threads the session memos and dialect into the oracles.
// Options stay at defaults and unbudgeted: the memo only replays runs
// whose degradation bookkeeping is trivially empty, and core.Analyze
// with default options is the equivalence baseline.
func (s *Session) analysisConfig() analysis.Config {
	ovf := overflow.DefaultOptions()
	ovf.Memo = s.ovfMemo
	ovf.Backend = s.backend
	intf := intflow.DefaultOptions()
	intf.Memo = s.intMemo
	return analysis.Config{Overflow: &ovf, Intflow: &intf, Hashes: s.hashMemo, Tracer: s.conf.Tracer}
}

// Edit applies a position-stable delta script to the session text and
// re-analyzes. Functions whose dependency hash survives the edit replay
// their findings from the oracle memos and their repair sites from the
// site memo, extents remapped through the script's offset mapper; only
// the dirty set is re-derived. The returned result is byte-identical to
// closing the session and re-opening it on the new text. An edit that
// fails at any step leaves the session on its old text, findings and
// sites.
func (s *Session) Edit(ctx context.Context, deltas []edit.Delta) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Minimizing first protects the remap below: a client that re-sends a
	// span (or the whole file) with a one-byte change must not count the
	// unchanged bytes as edited.
	script := edit.NewScript(edit.Minimize(s.text, deltas)...)
	if err := script.Validate(len(s.text)); err != nil {
		return nil, err
	}
	if len(script.Deltas()) == 0 {
		// Nothing changed (an identical whole-file resend): every
		// function's facts stand as they are.
		s.discovered = 0
		return s.result(0, len(s.hashes)), nil
	}
	newText, err := script.Apply(s.text)
	if err != nil {
		return nil, err
	}

	sp := s.conf.Tracer.Start(ctx, obs.StageIncremental, s.name)
	defer sp.End()

	// Parse before touching retained state: an edit that breaks the parse
	// must leave the session exactly as it was. The snapshot's derived
	// facts (and with them the memo lookups) stay lazy until the lint
	// below forces them, after the remap.
	snap, restore, err := s.parse(ctx, script, newText)
	if err != nil {
		return nil, err
	}
	// A function parse moved the retained nodes it shares with the
	// current snapshot; any failure from here on puts them back.
	committed := false
	defer func() {
		if !committed {
			restore()
		}
	}()

	// Shift the oracle memos into the new text's coordinates. Entries the
	// edit landed inside are dropped by Remap (inexact); entries the edit
	// invalidated semantically miss on hash and age out. The hash memo is
	// keyed by content, not position, and needs no remap.
	mapper := edit.NewMapper(script)
	s.ovfMemo.Remap(mapper.MapExtent)
	s.intMemo.Remap(mapper.MapExtent)

	// Derive everything before the swap: a lint or discovery failure
	// must leave the session on its old text, findings and sites.
	d, err := s.derive(snap, mapper)
	if err != nil {
		// The oracle memos are now in the coordinates of a text that
		// never became current; drop them rather than guess. The site
		// memo was only read.
		s.ovfMemo, s.intMemo = overflow.NewMemo(), overflow.NewMemo()
		return nil, err
	}
	dirty, reused := diffHashes(s.hashes, d.hashes)
	s.commit(newText, snap, d)
	committed = true

	res := s.result(dirty, reused)
	sp.Attr("funcs_reanalyzed", fmt.Sprint(dirty)).
		Attr("funcs_reused", fmt.Sprint(reused)).
		Attr("findings", fmt.Sprint(len(res.Findings)))
	return res, nil
}

// result counts one applied edit and returns the session's current
// result for it.
func (s *Session) result(dirty, reused int) *Result {
	s.counters.EditsApplied++
	s.counters.FuncsReanalyzed += int64(dirty)
	s.counters.FuncsReused += int64(reused)
	return &Result{Text: s.text, Findings: s.findings, Sites: append([]Site(nil), s.sites...),
		FuncsReanalyzed: dirty, FuncsReused: reused}
}

// parse builds the snapshot of newText, the current text edited by
// script. When every delta lies strictly inside one function's body
// braces and the unit's function names are unique, it re-parses that
// body alone (analysis.ParseFuncCtx), unless the function path declines;
// every other edit parses the whole unit. restore undoes what a function
// parse did to the current snapshot's nodes; after a whole parse it does
// nothing.
func (s *Session) parse(ctx context.Context, script *edit.Script, newText string) (*analysis.Snapshot, func(), error) {
	if fi := s.editedBody(script.Deltas()); fi >= 0 {
		snap, restore, err := analysis.ParseFuncCtx(ctx, s.snap, fi, newText, s.analysisConfig())
		if !errors.Is(err, cparse.ErrDeclined) {
			return snap, restore, err
		}
	}
	snap, err := analysis.ParseCtx(ctx, s.name, newText, s.analysisConfig())
	return snap, func() {}, err
}

// editedBody returns the index of the function whose body braces hold
// every delta (at least one) strictly inside them, or -1 when there is
// none or the unit has duplicate function names.
func (s *Session) editedBody(deltas []edit.Delta) int {
	unit := s.snap.Unit()
	if len(s.hashes) != len(unit.Funcs) {
		return -1
	}
	fi := unit.FuncIndexAt(deltas[0].Extent.Pos)
	if fi < 0 {
		return -1
	}
	body := unit.Funcs[fi].Body
	for _, d := range deltas {
		if d.Extent.Pos < body.LBrace.End || d.Extent.End > body.RBrace.Pos {
			return -1
		}
	}
	return fi
}

// sitesFor derives snap's repair sites. A function whose dependency hash
// has a site-memo entry whose every site remapped exactly through mapper
// keeps those sites: equal hash means equal site decisions (SLR reads the
// function's own facts, STR also its callees' may-modify facts, both
// covered by the hash), and an exact remap means equal extents. Every
// other function is re-discovered, all of them in one transformer run
// restricted to them. It returns the new memo and site list without
// touching the session's.
func (s *Session) sitesFor(snap *analysis.Snapshot, hashes map[string]string, mapper *edit.Mapper) (map[string][]trackedSite, []Site, error) {
	funcs := snap.Unit().Funcs
	// Duplicate function names collide in the by-name hash map: such a
	// unit is discovered whole and memoizes nothing.
	unique := len(hashes) == len(funcs)
	perFunc := make([][]trackedSite, len(funcs))
	var dirty []*cast.FuncDef
	var dirtyAt []int
	for i, fn := range funcs {
		if old, ok := s.siteMemo[hashes[fn.Name]]; ok && unique {
			if moved, exact := remapSites(old, mapper); exact {
				perFunc[i] = moved
				continue
			}
		}
		dirty = append(dirty, fn)
		dirtyAt = append(dirtyAt, i)
	}
	s.discovered = len(dirty)
	if len(dirty) > 0 {
		found, err := discoverSites(snap, s.backend, dirty)
		if err != nil {
			return nil, nil, err
		}
		for k, i := range dirtyAt {
			perFunc[i] = found[k]
		}
	}

	var memo map[string][]trackedSite
	if unique {
		memo = make(map[string][]trackedSite, len(funcs))
	}
	var sites []Site
	for i, fn := range funcs {
		if memo != nil {
			memo[hashes[fn.Name]] = perFunc[i]
		}
		for _, ts := range perFunc[i] {
			sites = append(sites, ts.Site)
		}
	}
	return memo, sites, nil
}

// remapSites carries one function's sites across an edit, reporting
// whether every extent survived exactly.
func remapSites(old []trackedSite, mapper *edit.Mapper) ([]trackedSite, bool) {
	moved := make([]trackedSite, len(old))
	for i, ts := range old {
		span, exact := mapper.MapExtent(ts.span)
		if !exact {
			return nil, false
		}
		ts.span = span
		if ts.Kind == SiteSTR {
			ts.Extent = ctoken.Extent{Pos: span.Pos, End: span.Pos}
		} else {
			ts.Extent = span
		}
		moved[i] = ts
	}
	return moved, true
}

// diffHashes splits the new function set into dirty (hash changed or
// function new) and reused (hash unchanged); deleted functions count as
// dirty work.
func diffHashes(old, new map[string]string) (dirty, reused int) {
	for name, h := range new {
		if old[name] == h {
			reused++
		} else {
			dirty++
		}
	}
	for name := range old {
		if _, ok := new[name]; !ok {
			dirty++
		}
	}
	return dirty, reused
}

// Text returns the current session text.
func (s *Session) Text() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.text
}

// Name returns the file name the session was opened with.
func (s *Session) Name() string { return s.name }

// Findings returns the current diagnostics.
func (s *Session) Findings() []overflow.Finding {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]overflow.Finding(nil), s.findings...)
}

// Sites returns the current repair candidates.
func (s *Session) Sites() []Site {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Site(nil), s.sites...)
}

// Counters returns the cumulative incremental-work counters.
func (s *Session) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Position renders a byte offset in the current text as file:line:col.
func (s *Session) Position(p ctoken.Pos) ctoken.Position {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap == nil || s.snap.Unit().File == nil {
		return ctoken.Position{File: s.name}
	}
	return s.snap.Unit().File.Position(p)
}

// discoverSites runs both transformers in discovery mode over fns (unit
// functions in source order) and projects their results to the
// session-compact site type, one source-ordered list per function.
func discoverSites(snap *analysis.Snapshot, be backend.Backend, fns []*cast.FuncDef) ([][]trackedSite, error) {
	unit := snap.Unit()
	out := make([][]trackedSite, len(fns))
	slot := make(map[*cast.FuncDef]int, len(fns))
	for i, fn := range fns {
		slot[fn] = i
	}
	add := func(ts trackedSite) {
		// The transformers looked only inside fns, so FuncAt finds one.
		fn := unit.FuncAt(ts.span.Pos)
		// The memo outlives this snapshot: names sliced from its source
		// would keep every past version of the text alive.
		ts.Function, ts.Name = strings.Clone(fn.Name), strings.Clone(ts.Name)
		out[slot[fn]] = append(out[slot[fn]], ts)
	}
	slrRes, err := slr.NewTransformer(snap, be).ApplyFuncs(fns)
	if err != nil {
		return nil, fmt.Errorf("incremental: slr discovery: %w", err)
	}
	for _, st := range slrRes.Sites {
		ts := trackedSite{Site: Site{
			Kind:     SiteSLR,
			Name:     st.Function,
			SafeName: st.SafeName,
			Extent:   st.Extent,
			Eligible: st.Applied,
		}, span: st.Extent}
		if st.Failure != nil {
			ts.Reason = st.Failure.Reason.String()
		}
		add(ts)
	}
	strRes, err := str.NewTransformer(snap).ApplyFuncs(fns)
	if err != nil {
		return nil, fmt.Errorf("incremental: str discovery: %w", err)
	}
	for _, v := range strRes.Vars {
		ts := trackedSite{Site: Site{
			Kind:     SiteSTR,
			Name:     v.Name,
			SafeName: "stralloc",
			Extent:   ctoken.Extent{Pos: v.Extent.Pos, End: v.Extent.Pos},
			Eligible: v.Applied,
		}, span: v.Extent}
		if !v.Applied {
			ts.Reason = v.Reason.String()
		}
		add(ts)
	}
	// Source order, STR after SLR at equal offsets for determinism.
	for _, sites := range out {
		slices.SortStableFunc(sites, func(a, b trackedSite) int {
			return cmp.Or(
				cmp.Compare(a.Extent.Pos, b.Extent.Pos),
				cmp.Compare(a.Kind, b.Kind),
				cmp.Compare(a.Name, b.Name),
			)
		})
	}
	return out, nil
}
