// Session endpoints: a cfixd client can hold an incremental analysis
// session open across edits instead of re-sending whole files to
// /v1/lint. The daemon keeps one incremental.Session per id; an edit
// request re-derives facts for only the functions it touched and
// answers with diagnostics and repair sites byte-identical to a fresh
// /v1/lint + discovery on the same text.
//
//	POST /v1/session/open   cfix.SessionOpenRequest  -> cfix.SessionResponse
//	POST /v1/session/edit   cfix.SessionEditRequest  -> cfix.SessionResponse
//	POST /v1/session/close  cfix.SessionCloseRequest -> cfix.SessionCloseResponse
//
// Sessions hold retained parses and memo tables, so the table is
// bounded: opens beyond MaxSessions answer 429 until a session closes.
// An edit that fails (overlapping script, parse-breaking change)
// leaves the session on its previous text and facts; the client can
// correct and continue.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/pkg/cfix"
)

// sessionEntry pairs a live session with its tracer. The request path
// drains each request's spans into the stage metrics, so the tracer
// never holds more than one operation's spans.
type sessionEntry struct {
	session *incremental.Session
	tracer  *obs.Tracer
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
	if _, err := rand.Read(buf[:]); err != nil {
		// Entropy exhaustion is not a reason to refuse service; fall back
		// to a counter-flavored id derived from the table size.
		copy(buf[:], fmt.Sprintf("%08d", len(r.entries)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) >= r.max {
		return "", false
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
	entry := &sessionEntry{tracer: c.Tracer}
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
	return sessionResponse(id, req.Filename, res), nil
}

func (s *Server) editSession(ctx context.Context, c *Call, req *cfix.SessionEditRequest) (any, error) {
	entry := s.sessions.get(req.SessionID)
	if entry == nil {
		return nil, statusf(http.StatusNotFound, "unknown session %s", req.SessionID)
	}
	c.Label, c.Tracer = entry.session.Name(), entry.tracer
	res, err := entry.session.Edit(ctx, cfix.ToDeltas(req.Deltas))
	if err != nil {
		return nil, err
	}
	s.m.sessionEdits.Add(1)
	s.m.sessionFuncsReanalyzed.Add(int64(res.FuncsReanalyzed))
	s.m.sessionFuncsReused.Add(int64(res.FuncsReused))
	return sessionResponse(req.SessionID, entry.session.Name(), res), nil
}

func (s *Server) closeSession(_ context.Context, _ *Call, req *cfix.SessionCloseRequest) (any, error) {
	if !s.sessions.remove(req.SessionID) {
		return nil, statusf(http.StatusNotFound, "unknown session %s", req.SessionID)
	}
	return cfix.SessionCloseResponse{SessionID: req.SessionID, Closed: true}, nil
}

// sessionResponse renders one open/edit outcome in the wire shape.
func sessionResponse(id, filename string, res *incremental.Result) cfix.SessionResponse {
	resp := cfix.SessionResponse{
		SessionID:       id,
		Filename:        filename,
		Findings:        []cfix.SessionFindingJSON{},
		Sites:           []cfix.SessionSiteJSON{},
		FuncsReanalyzed: res.FuncsReanalyzed,
		FuncsReused:     res.FuncsReused,
	}
	if fs := cfix.NewSessionFindingsJSON(res.Findings); len(fs) > 0 {
		resp.Findings = fs
	}
	if sites := cfix.NewSessionSitesJSON(res.Sites); len(sites) > 0 {
		resp.Sites = sites
	}
	return resp
}
