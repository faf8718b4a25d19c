package cfix

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/ctoken"
	"repro/internal/edit"
	"repro/internal/incremental"
)

// SessionDelta is one position-stable edit in a session edit script:
// a half-open byte range [Pos, End) in the session's current text plus
// its replacement. Pos == End inserts, empty Text deletes. Offsets are
// original-text coordinates for every delta in one request — the server
// applies them as a single atomic script, exactly like edit.Script.
type SessionDelta struct {
	Pos  int    `json:"pos"`
	End  int    `json:"end"`
	Text string `json:"text"`
}

// ToDeltas converts wire deltas to the edit package's representation.
func ToDeltas(ds []SessionDelta) []edit.Delta {
	out := make([]edit.Delta, len(ds))
	for i, d := range ds {
		out[i] = edit.Delta{
			Extent: ctoken.Extent{Pos: ctoken.Pos(d.Pos), End: ctoken.Pos(d.End)},
			Text:   d.Text,
		}
	}
	return out
}

// SessionFindingJSON is a finding in a session response: the usual wire
// shape plus the byte extent in the session's current text, which an
// editor needs to place the diagnostic.
type SessionFindingJSON struct {
	FindingJSON
	ExtentPos int `json:"extent_pos"`
	ExtentEnd int `json:"extent_end"`
}

// SessionSiteJSON is one SLR/STR repair candidate in a session
// response. Byte offsets address the session's current text.
type SessionSiteJSON struct {
	// Kind is "slr" or "str".
	Kind string `json:"kind"`
	// Function is the enclosing function.
	Function string `json:"function"`
	// Name is the unsafe callee (SLR) or candidate variable (STR).
	Name string `json:"name"`
	// SafeName is the backend's replacement spelling.
	SafeName string `json:"safe_name"`
	// ExtentPos/ExtentEnd cover the call expression (SLR) or anchor the
	// variable declaration (STR, zero width).
	ExtentPos int `json:"extent_pos"`
	ExtentEnd int `json:"extent_end"`
	// Eligible reports that the transformation's preconditions hold; a
	// fix request at ExtentPos will apply.
	Eligible bool `json:"eligible"`
	// Reason classifies the refused precondition when !Eligible.
	Reason string `json:"reason,omitempty"`
}

// SessionOpenRequest opens an incremental analysis session on one
// translation unit. Only Options.Checks and Options.Backend are
// consulted: sessions always run unbudgeted (the memoized facts must be
// byte-identical to a fresh analysis, which degradation bookkeeping is
// not).
type SessionOpenRequest struct {
	Filename string         `json:"filename,omitempty"`
	Source   string         `json:"source"`
	Options  RequestOptions `json:"options,omitempty"`
}

// SessionEditRequest applies one edit script to an open session.
type SessionEditRequest struct {
	SessionID string `json:"session_id"`
	// Base is the version of the session state the client holds. When
	// the session is on that version, the answer carries only what the
	// edit changed (see SessionResponse); zero or any other version gets
	// the full state. Client fills it in for the sessions it opened.
	Base   int            `json:"base,omitempty"`
	Deltas []SessionDelta `json:"deltas"`
}

// SessionCloseRequest closes an open session.
type SessionCloseRequest struct {
	SessionID string `json:"session_id"`
}

// SessionResponse is the service's answer to a session open or edit.
// A full answer holds the diagnostics and repair sites for the
// session's current text, byte-identical to what /v1/lint and a fresh
// discovery would produce on the same source. An edit answer whose Base
// is nonzero holds only what changed since state Base; Client applies
// it to the state it holds and returns the full answer, so the
// /v1/lint contract holds for the client's state.
type SessionResponse struct {
	SessionID string `json:"session_id"`
	Filename  string `json:"filename,omitempty"`
	// Version numbers the state this answer describes: 1 after the
	// open, one more after each applied edit.
	Version int `json:"version"`
	// Base, when nonzero, is the version this edit answer changes: every
	// finding and site of a function outside Changed moves by Moves.
	Base int `json:"base,omitempty"`
	// Moves holds one entry per request delta, in request order (a
	// changed answer only).
	Moves []SessionMove `json:"moves,omitempty"`
	// Changed names the functions whose findings and sites a changed
	// answer replaces with the ones it carries. A function that was
	// deleted, or whose lists emptied, is named with none.
	Changed []string `json:"changed,omitempty"`
	// Findings lists the selected oracles' findings in source order; an
	// explicit empty list means a clean file (a changed answer: the
	// findings of the Changed functions only).
	Findings []SessionFindingJSON `json:"findings"`
	// Sites lists the SLR/STR repair candidates in source order (a
	// changed answer: the sites of the Changed functions only).
	Sites []SessionSiteJSON `json:"sites"`
	// FuncsReanalyzed / FuncsReused break down the incremental work of
	// this request (an open derives everything: reused is 0).
	FuncsReanalyzed int `json:"funcs_reanalyzed"`
	FuncsReused     int `json:"funcs_reused"`
}

// SessionMove is the move rule for one request delta: a finding or site
// that starts at or after End in the previous text moves by Bytes and
// Lines, the delta's changes in length and in line count.
type SessionMove struct {
	End   int `json:"end"`
	Bytes int `json:"bytes"`
	Lines int `json:"lines"`
}

// SessionCloseResponse acknowledges a close.
type SessionCloseResponse struct {
	SessionID string `json:"session_id"`
	Closed    bool   `json:"closed"`
}

// NewSessionFindingsJSON renders session findings in the wire shape.
func NewSessionFindingsJSON(fs []Finding) []SessionFindingJSON {
	out := make([]SessionFindingJSON, len(fs))
	for i, f := range fs {
		out[i] = SessionFindingJSON{
			FindingJSON: NewFindingJSON(f),
			ExtentPos:   int(f.Extent.Pos),
			ExtentEnd:   int(f.Extent.End),
		}
	}
	return out
}

// NewSessionSitesJSON renders session repair sites in the wire shape.
func NewSessionSitesJSON(sites []incremental.Site) []SessionSiteJSON {
	out := make([]SessionSiteJSON, len(sites))
	for i, st := range sites {
		out[i] = SessionSiteJSON{
			Kind:      string(st.Kind),
			Function:  st.Function,
			Name:      st.Name,
			SafeName:  st.SafeName,
			ExtentPos: int(st.Extent.Pos),
			ExtentEnd: int(st.Extent.End),
			Eligible:  st.Eligible,
			Reason:    st.Reason,
		}
	}
	return out
}

// sessionEntry is a finding or a repair site as the move rule sees it.
type sessionEntry[T any] interface {
	function() string
	pos() int
	moved(bytes, lines int) T
	same(T) bool
}

func (f SessionFindingJSON) function() string { return f.Function }
func (f SessionFindingJSON) pos() int         { return f.ExtentPos }

// same compares every field; TestSameComparesEveryField holds it to
// the struct.
func (f SessionFindingJSON) same(g SessionFindingJSON) bool {
	return f.ExtentPos == g.ExtentPos && f.ExtentEnd == g.ExtentEnd &&
		f.File == g.File && f.Line == g.Line && f.Col == g.Col && f.CWE == g.CWE &&
		f.CWEName == g.CWEName && f.Severity == g.Severity && f.Function == g.Function &&
		f.Object == g.Object && f.Message == g.Message && f.Fix == g.Fix &&
		f.Guard == g.Guard && slices.Equal(f.Contexts, g.Contexts) && f.Degraded == g.Degraded
}

func (f SessionFindingJSON) moved(bytes, lines int) SessionFindingJSON {
	f.ExtentPos += bytes
	f.ExtentEnd += bytes
	f.Line += lines
	return f
}

func (s SessionSiteJSON) function() string            { return s.Function }
func (s SessionSiteJSON) pos() int                    { return s.ExtentPos }
func (s SessionSiteJSON) same(t SessionSiteJSON) bool { return s == t }
func (s SessionSiteJSON) moved(bytes, _ int) SessionSiteJSON {
	s.ExtentPos += bytes
	s.ExtentEnd += bytes
	return s
}

// move applies the move rule of every request delta to e.
func move[T sessionEntry[T]](e T, moves []SessionMove) T {
	bytes, lines := 0, 0
	for _, m := range moves {
		if m.End <= e.pos() {
			bytes += m.Bytes
			lines += m.Lines
		}
	}
	return e.moved(bytes, lines)
}

// addChanged adds to changed every function whose entries in next are
// not its entries in prev moved. It walks both lists in offset order
// and pairs equal entries; a function none of whose entries is left
// unpaired has the same entries in the same order in both, since the
// walk pairs entries of one function (same compares Function) and never
// goes back. Same-named functions thus form one group.
func addChanged[T sessionEntry[T]](prev, next []T, moves []SessionMove, changed map[string]bool) {
	i, j := 0, 0
	for i < len(prev) || j < len(next) {
		if i == len(prev) {
			changed[next[j].function()] = true
			j++
			continue
		}
		e := move(prev[i], moves)
		switch {
		case j < len(next) && e.same(next[j]):
			i++
			j++
		case j == len(next) || e.pos() < next[j].pos():
			changed[e.function()] = true
			i++
		case next[j].pos() < e.pos():
			changed[next[j].function()] = true
			j++
		default:
			changed[e.function()] = true
			changed[next[j].function()] = true
			i++
			j++
		}
	}
}

// sameFunctions reports whether a and b hold entries of the same
// functions at each index.
func sameFunctions[T sessionEntry[T]](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].function() != b[i].function() {
			return false
		}
	}
	return true
}

// only keeps the entries of the changed functions.
func only[T sessionEntry[T]](es []T, changed map[string]bool) []T {
	out := []T{}
	for _, e := range es {
		if changed[e.function()] {
			out = append(out, e)
		}
	}
	return out
}

// splice merges the moved entries of the functions an answer keeps with
// the entries it carries, in byte order, a kept entry first at equal
// offsets.
func splice[T sessionEntry[T]](prev, fresh []T, moves []SessionMove, changed map[string]bool) []T {
	out := make([]T, 0, len(prev)+len(fresh))
	i := 0
	for _, e := range prev {
		if changed[e.function()] {
			continue
		}
		e = move(e, moves)
		for ; i < len(fresh) && fresh[i].pos() < e.pos(); i++ {
			out = append(out, fresh[i])
		}
		out = append(out, e)
	}
	return append(out, fresh[i:]...)
}

// SessionEditAnswer returns the answer to an edit, with the given moves,
// that led from the full state prev to the full state next. The answer
// carries the functions whose lists in next differ from their lists in
// prev moved by moves. It is next itself when applying that answer to
// prev would not give next.
func SessionEditAnswer(prev, next *SessionResponse, moves []SessionMove) *SessionResponse {
	changed := make(map[string]bool)
	addChanged(prev.Findings, next.Findings, moves, changed)
	addChanged(prev.Sites, next.Sites, moves, changed)
	ans := *next
	ans.Base, ans.Moves = prev.Version, moves
	ans.Changed = make([]string, 0, len(changed))
	for name := range changed {
		ans.Changed = append(ans.Changed, name)
	}
	sort.Strings(ans.Changed)
	ans.Findings, ans.Sites = only(next.Findings, changed), only(next.Sites, changed)
	// Each function's entries are now right and in order, so the
	// client's lists are next's exactly when every index holds an entry
	// of the same function. Offset order breaks that only where two
	// functions' entries share an offset; checking keeps the answer exact
	// whatever the lists hold.
	got := prev.apply(&ans)
	if !sameFunctions(got.Findings, next.Findings) || !sameFunctions(got.Sites, next.Sites) {
		return next
	}
	return &ans
}

// apply returns the full state a changed answer to an edit of the full
// state prev leads to.
func (prev *SessionResponse) apply(ans *SessionResponse) *SessionResponse {
	changed := make(map[string]bool, len(ans.Changed))
	for _, name := range ans.Changed {
		changed[name] = true
	}
	next := *ans
	next.Base, next.Moves, next.Changed = 0, nil, nil
	next.Findings = splice(prev.Findings, ans.Findings, ans.Moves, changed)
	next.Sites = splice(prev.Sites, ans.Sites, ans.Moves, changed)
	return &next
}

// clientSession is the state a Client holds for one session it opened.
// Its lock serializes the session's edits, so each answer applies to the
// state its request named.
type clientSession struct {
	mu    sync.Mutex
	state *SessionResponse
}

// session returns the state held for id, or nil.
func (c *Client) session(id string) *clientSession {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	return c.sessions[id]
}

// SessionOpen opens an incremental session through POST /v1/session/open
// and holds its state for later edits until SessionClose.
func (c *Client) SessionOpen(ctx context.Context, req SessionOpenRequest) (*SessionResponse, error) {
	var resp SessionResponse
	if err := c.call(ctx, "/v1/session/open", req, &resp); err != nil {
		return nil, err
	}
	c.sessMu.Lock()
	if c.sessions == nil {
		c.sessions = make(map[string]*clientSession)
	}
	c.sessions[resp.SessionID] = &clientSession{state: &resp}
	c.sessMu.Unlock()
	out := resp
	return &out, nil
}

// SessionEdit applies an edit script through POST /v1/session/edit. For
// a session this client opened it names the state it holds as the
// request's Base and applies the answer to that state. It always returns
// the full answer; its lists are shared with the held state and must
// not be modified.
func (c *Client) SessionEdit(ctx context.Context, req SessionEditRequest) (*SessionResponse, error) {
	cs := c.session(req.SessionID)
	if cs != nil {
		cs.mu.Lock()
		defer cs.mu.Unlock()
		req.Base = cs.state.Version
	}
	var resp SessionResponse
	if err := c.call(ctx, "/v1/session/edit", req, &resp); err != nil {
		return nil, err
	}
	full := &resp
	if resp.Base != 0 {
		if cs == nil || resp.Base != cs.state.Version {
			return nil, fmt.Errorf("cfix client: session %s: answer changes version %d, not the state held", req.SessionID, resp.Base)
		}
		full = cs.state.apply(&resp)
	}
	if cs != nil {
		cs.state = full
	}
	out := *full
	return &out, nil
}

// SessionClose releases a session through POST /v1/session/close and
// drops the state the client held for it.
func (c *Client) SessionClose(ctx context.Context, req SessionCloseRequest) (*SessionCloseResponse, error) {
	c.sessMu.Lock()
	delete(c.sessions, req.SessionID)
	c.sessMu.Unlock()
	var resp SessionCloseResponse
	if err := c.call(ctx, "/v1/session/close", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
