// Session endpoints: a cfixd client can hold an incremental analysis
// session open across edits instead of re-sending whole files to
// /v1/lint. The daemon keeps one incremental.Session per id; an edit
// request re-derives facts for only the functions it touched.
//
//	POST /v1/session/open   cfix.SessionOpenRequest  -> cfix.SessionResponse
//	POST /v1/session/edit   cfix.SessionEditRequest  -> cfix.SessionResponse
//	POST /v1/session/close  cfix.SessionCloseRequest -> cfix.SessionCloseResponse
//
// Every answer carries the session's version. An open answers the full
// state: diagnostics and repair sites byte-identical to a fresh /v1/lint
// plus discovery on the same text. An edit whose base names the version
// the session is on answers only the functions whose lists the edit
// changed beyond moving them (cfix.SessionEditAnswer, read against the
// session's lists from before the edit); any other base gets the full
// state. A cfix.Client applies each answer to the state it holds, so the
// /v1/lint contract holds for the client's state.
//
// Sessions hold retained parses and memo tables, so the table is
// bounded: opens beyond MaxSessions answer 429 until a session closes.
// An edit that fails (overlapping script, parse-breaking change)
// leaves the session on its previous text, facts and version; the
// client can correct and continue.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/overflow"
	"repro/pkg/cfix"
)

// sessionEntry pairs a live session with its tracer and version. The
// request path drains each request's spans into the stage metrics, so
// the tracer never holds more than one operation's spans.
type sessionEntry struct {
	session *incremental.Session
	tracer  *obs.Tracer
	// mu serializes edits, so an edit reads the lists and the version
	// its own change starts from.
	mu      sync.Mutex
	version int
}

// sessionRegistry is the daemon's open-session table.
type sessionRegistry struct {
	mu      sync.Mutex
	entries map[string]*sessionEntry
	max     int
}

func newSessionRegistry(max int) *sessionRegistry {
	return &sessionRegistry{entries: make(map[string]*sessionEntry), max: max}
}

// add claims a slot and registers the entry under a fresh id; ok is
// false when the table is full.
func (r *sessionRegistry) add(e *sessionEntry) (id string, ok bool) {
	var buf [8]byte
	_, err := rand.Read(buf[:])
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) >= r.max {
		return "", false
	}
	if err != nil {
		// Entropy exhaustion is not a reason to refuse service; fall back
		// to a counter-flavored id derived from the table size.
		copy(buf[:], fmt.Sprintf("%08d", len(r.entries)))
	}
	id = "sess-" + hex.EncodeToString(buf[:])
	for r.entries[id] != nil {
		id += "x"
	}
	r.entries[id] = e
	return id, true
}

// get looks up an open session.
func (r *sessionRegistry) get(id string) *sessionEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[id]
}

// remove closes a session; it reports whether the id was open.
func (r *sessionRegistry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[id] == nil {
		return false
	}
	delete(r.entries, id)
	return true
}

// errFull is the answer to an open beyond the table's bound.
func (r *sessionRegistry) errFull() error {
	return statusf(http.StatusTooManyRequests, "session table full: %d sessions open", r.max)
}

// count returns the number of open sessions.
func (r *sessionRegistry) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.entries))
}

// checkSessionOpen validates an open as a one-unit request, after a
// cheap check that refuses a full table before anything is parsed; add
// re-checks under the lock after the analysis.
func (s *Server) checkSessionOpen(req *cfix.SessionOpenRequest) (string, *cfix.RequestOptions, error) {
	if s.sessions.count() >= int64(s.sessions.max) {
		return "", nil, s.sessions.errFull()
	}
	return CheckUnit((*cfix.FixRequest)(req))
}

// openSession analyzes the unit and registers the session. The
// request's tracer becomes the session's: every later edit records into
// it and the request path drains it after each request.
func (s *Server) openSession(ctx context.Context, c *Call, req *cfix.SessionOpenRequest) (any, error) {
	entry := &sessionEntry{tracer: c.Tracer, version: 1}
	sess, res, err := incremental.Open(ctx, req.Filename, req.Source, incremental.Config{
		Checks:  req.Options.Checks,
		Backend: c.Options.Backend,
		Tracer:  entry.tracer,
	})
	if err != nil {
		return nil, err
	}
	entry.session = sess
	id, ok := s.sessions.add(entry)
	if !ok {
		return nil, s.sessions.errFull()
	}
	return sessionResponse(id, req.Filename, entry.version, res.Findings, res.Sites), nil
}

// editSession applies one edit. When the request's base is the
// session's version it reads the session's lists and text before the
// edit, and answers only what changed against them.
func (s *Server) editSession(ctx context.Context, c *Call, req *cfix.SessionEditRequest) (any, error) {
	entry := s.sessions.get(req.SessionID)
	if entry == nil {
		return nil, statusf(http.StatusNotFound, "unknown session %s", req.SessionID)
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	sess := entry.session
	c.Label, c.Tracer = sess.Name(), entry.tracer
	var prev *cfix.SessionResponse
	var text string
	if req.Base == entry.version {
		prev = sessionResponse(req.SessionID, sess.Name(), entry.version, sess.Findings(), sess.Sites())
		text = sess.Text()
	}
	res, err := sess.Edit(ctx, cfix.ToDeltas(req.Deltas))
	if err != nil {
		return nil, err
	}
	entry.version++
	s.m.sessionEdits.Add(1)
	s.m.sessionFuncsReanalyzed.Add(int64(res.FuncsReanalyzed))
	s.m.sessionFuncsReused.Add(int64(res.FuncsReused))
	next := sessionResponse(req.SessionID, sess.Name(), entry.version, res.Findings, res.Sites)
	next.FuncsReanalyzed, next.FuncsReused = res.FuncsReanalyzed, res.FuncsReused
	if prev == nil {
		return next, nil
	}
	// The edit applied, so every delta lies inside text: edit.Minimize
	// passes an out-of-range delta on to the script's validation.
	moves := make([]cfix.SessionMove, len(req.Deltas))
	for i, d := range req.Deltas {
		moves[i] = cfix.SessionMove{End: d.End, Bytes: len(d.Text) - (d.End - d.Pos),
			Lines: strings.Count(d.Text, "\n") - strings.Count(text[d.Pos:d.End], "\n")}
	}
	return cfix.SessionEditAnswer(prev, next, moves), nil
}

func (s *Server) closeSession(_ context.Context, _ *Call, req *cfix.SessionCloseRequest) (any, error) {
	if !s.sessions.remove(req.SessionID) {
		return nil, statusf(http.StatusNotFound, "unknown session %s", req.SessionID)
	}
	return cfix.SessionCloseResponse{SessionID: req.SessionID, Closed: true}, nil
}

// sessionResponse renders a session state in the full wire shape.
func sessionResponse(id, filename string, version int, findings []overflow.Finding, sites []incremental.Site) *cfix.SessionResponse {
	return &cfix.SessionResponse{
		SessionID: id,
		Filename:  filename,
		Version:   version,
		Findings:  cfix.NewSessionFindingsJSON(findings),
		Sites:     cfix.NewSessionSitesJSON(sites),
	}
}
