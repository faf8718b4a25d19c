// Package incremental holds edit-aware analysis sessions: a Session
// keeps the last parse of one C translation unit plus memoized
// per-function oracle facts, applies each edit batch as one minimized
// edit.Script in the current text's coordinates, and re-derives
// diagnostics for only the functions an edit actually touched. A client
// whose changes arrive in sequence (LSP didChange) folds them into one
// whole-text replacement first; Minimize shrinks it back to the bytes
// that changed.
//
// The invalidation currency is the per-function dependency hash
// (analysis.Snapshot.FuncHashes): a function whose hash is unchanged
// after an edit gets its findings replayed from the cross-run memo
// (overflow.Memo) with extents remapped through the edit's offset
// mapper, byte-identical to a fresh run. Everything the session returns
// — findings and repair sites — therefore matches a from-scratch
// core.Analyze/core.Fix on the same text; the equivalence suite pins
// that property over randomized edit scripts.
//
// Both front ends sit on this package: cmd/cfixlsp (stdio LSP server)
// and cfixd's /v1/session endpoints.
package incremental

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/core"
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
	// at the variable's position (STR).
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

	snap    *analysis.Snapshot
	hashes  map[string]string
	ovfMemo *overflow.Memo
	intMemo *overflow.Memo

	findings []overflow.Finding
	sites    []Site

	counters Counters
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
		name:    name,
		conf:    conf,
		backend: be,
		ovfMemo: overflow.NewMemo(),
		intMemo: overflow.NewMemo(),
	}
	if err := s.analyze(ctx, text); err != nil {
		return nil, nil, err
	}
	sites, err := discoverSites(s.snap, s.backend)
	if err != nil {
		return nil, nil, err
	}
	s.sites = sites
	return s, &Result{Text: s.text, Findings: s.findings, Sites: sites}, nil
}

// analysisConfig threads the session memos into the oracle options.
// Options stay at defaults and unbudgeted: the memo only replays runs
// whose degradation bookkeeping is trivially empty, and core.Analyze
// with default options is the equivalence baseline.
func (s *Session) analysisConfig() analysis.Config {
	ovf := overflow.DefaultOptions()
	ovf.Memo = s.ovfMemo
	intf := intflow.DefaultOptions()
	intf.Memo = s.intMemo
	return analysis.Config{Overflow: &ovf, Intflow: &intf, Tracer: s.conf.Tracer}
}

// analyze parses text and re-derives findings and hashes, reusing the
// memos; sites are left to the caller, which knows whether the dirty
// set justifies re-discovery. Callers hold s.mu (or are constructing s).
func (s *Session) analyze(ctx context.Context, text string) error {
	snap, err := analysis.ParseCtx(ctx, s.name, text, s.analysisConfig())
	if err != nil {
		return err
	}
	findings, err := core.LintSnapshot(snap, s.conf.Checks)
	if err != nil {
		return err
	}
	s.text = text
	s.snap = snap
	s.hashes = snap.FuncHashes()
	s.findings = findings
	return nil
}

// Edit applies a position-stable delta script to the session text and
// re-analyzes. Functions whose dependency hash survives the edit replay
// their findings from the memo (extents remapped through the script's
// offset mapper); only the dirty set is re-derived. The returned result
// is byte-identical to closing the session and re-opening it on the new
// text.
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
	snap, err := analysis.ParseCtx(ctx, s.name, newText, s.analysisConfig())
	if err != nil {
		return nil, err
	}

	// Shift every retained extent into the new text's coordinates.
	// Entries the edit landed inside are dropped by Remap (inexact);
	// entries the edit invalidated semantically miss on hash and age out.
	mapper := edit.NewMapper(script)
	oldSites := append([]Site(nil), s.sites...)
	s.ovfMemo.Remap(mapper.MapExtent)
	s.intMemo.Remap(mapper.MapExtent)
	sitesExact := true
	for i := range s.sites {
		ne, exact := mapper.MapExtent(s.sites[i].Extent)
		s.sites[i].Extent = ne
		sitesExact = sitesExact && exact
	}

	findings, err := core.LintSnapshot(snap, s.conf.Checks)
	if err != nil {
		// The memos are now in the coordinates of a text that never became
		// current; drop them rather than guess, and restore the sites.
		s.ovfMemo, s.intMemo = overflow.NewMemo(), overflow.NewMemo()
		s.sites = oldSites
		return nil, err
	}

	oldHashes := s.hashes
	s.text, s.snap, s.findings = newText, snap, findings
	s.hashes = snap.FuncHashes()

	dirty, reused := diffHashes(oldHashes, s.hashes)
	if dirty > 0 || !sitesExact {
		// The transformers are whole-unit, so any dirty function means a
		// full site re-discovery on the new snapshot; so does an edit that
		// landed inside a retained site's extent, whose fresh extent the
		// remap cannot reproduce.
		sites, err := discoverSites(s.snap, s.backend)
		if err != nil {
			return nil, err
		}
		s.sites = sites
	}
	// else: a clean edit (comments, whitespace outside every site) — the
	// remapped previous sites are byte-identical to a re-discovery, which
	// the equivalence suite pins, so the transformers are skipped.

	res := &Result{Text: s.text, Findings: s.findings, Sites: append([]Site(nil), s.sites...)}
	res.FuncsReanalyzed, res.FuncsReused = dirty, reused

	s.counters.EditsApplied++
	s.counters.FuncsReanalyzed += int64(dirty)
	s.counters.FuncsReused += int64(reused)
	sp.Attr("funcs_reanalyzed", fmt.Sprint(dirty)).
		Attr("funcs_reused", fmt.Sprint(reused)).
		Attr("findings", fmt.Sprint(len(res.Findings)))
	return res, nil
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

// discoverSites runs both transformers in discovery mode and projects
// their results to the session-compact site type.
func discoverSites(snap *analysis.Snapshot, be backend.Backend) ([]Site, error) {
	var sites []Site
	slrRes, err := slr.NewTransformerSnapBackend(snap, be).ApplyAll()
	if err != nil {
		return nil, fmt.Errorf("incremental: slr discovery: %w", err)
	}
	for _, st := range slrRes.Sites {
		site := Site{
			Kind:     SiteSLR,
			Function: funcAt(snap, st.Extent.Pos),
			Name:     st.Function,
			SafeName: st.SafeName,
			Extent:   st.Extent,
			Eligible: st.Applied,
		}
		if st.Failure != nil {
			site.Reason = st.Failure.Reason.String()
		}
		sites = append(sites, site)
	}
	strRes, err := str.NewTransformerSnap(snap).ApplyAll()
	if err != nil {
		return nil, fmt.Errorf("incremental: str discovery: %w", err)
	}
	for _, v := range strRes.Vars {
		site := Site{
			Kind:     SiteSTR,
			Function: v.Func,
			Name:     v.Name,
			SafeName: "stralloc",
			Extent:   varExtent(snap, v),
			Eligible: v.Applied,
		}
		if !v.Applied {
			site.Reason = v.Reason.String()
		}
		sites = append(sites, site)
	}
	// Source order, STR after SLR at equal offsets for determinism.
	slices.SortStableFunc(sites, func(a, b Site) int {
		return cmp.Or(
			cmp.Compare(a.Extent.Pos, b.Extent.Pos),
			cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.Name, b.Name),
		)
	})
	return sites, nil
}

// funcAt names the function whose extent contains offset p.
func funcAt(snap *analysis.Snapshot, p ctoken.Pos) string {
	for _, fn := range snap.Unit().Funcs {
		e := fn.Extent()
		if p >= e.Pos && p < e.End {
			return fn.Name
		}
	}
	return ""
}

// varExtent recovers a zero-width anchor for a STR variable from its
// declaration inside the named function.
func varExtent(snap *analysis.Snapshot, v str.VarResult) ctoken.Extent {
	fn := snap.Unit().FuncNamed(v.Func)
	if fn == nil {
		return ctoken.Extent{}
	}
	for _, sym := range snap.Unit().Symbols {
		if sym == nil || sym.IsGlobal || sym.Name != v.Name || sym.Decl == nil {
			continue
		}
		p := sym.Decl.Extent().Pos
		fe := fn.Extent()
		if p >= fe.Pos && p < fe.End {
			return ctoken.Extent{Pos: p, End: p}
		}
	}
	return ctoken.Extent{}
}
