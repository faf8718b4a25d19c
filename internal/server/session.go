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
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/pkg/cfix"
)

// sessionEntry pairs a live session with its tracer. Each request
// drains the spans it recorded into the stage metrics, so the tracer
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

// count returns the number of open sessions.
func (r *sessionRegistry) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.entries))
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	s.m.sessionOpens.Add(1)

	// Cheap pre-check so a full table refuses before parsing anything;
	// add re-checks under the lock after the analysis.
	if s.sessions.count() >= int64(s.sessions.max) {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session table full: %d sessions open", s.sessions.max))
		return
	}

	var req cfix.SessionOpenRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Source == "" {
		s.writeError(w, http.StatusBadRequest, "missing source")
		return
	}
	filename := requestFilename(req.Filename)
	be, ok := s.resolveBackend(w, req.Options.Backend)
	if !ok {
		return
	}

	entry := &sessionEntry{tracer: obs.NewTracer()}
	sess, res, err := incremental.Open(r.Context(), filename, req.Source, incremental.Config{
		Checks:  req.Options.Checks,
		Backend: be,
		Tracer:  entry.tracer,
	})
	if err != nil {
		s.failRequest(w, filename, err)
		return
	}
	entry.session = sess
	s.observeSessionSpans(entry)

	id, ok := s.sessions.add(entry)
	if !ok {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session table full: %d sessions open", s.sessions.max))
		return
	}
	s.writeJSON(w, http.StatusOK, sessionResponse(id, filename, res))
}

func (s *Server) handleSessionEdit(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	var req cfix.SessionEditRequest
	if !s.decode(w, r, &req) {
		return
	}
	entry := s.sessions.get(req.SessionID)
	if entry == nil {
		s.writeError(w, http.StatusNotFound, "unknown session "+req.SessionID)
		return
	}
	res, err := entry.session.Edit(r.Context(), cfix.ToDeltas(req.Deltas))
	s.observeSessionSpans(entry)
	if err != nil {
		s.failRequest(w, entry.session.Name(), err)
		return
	}
	s.m.sessionEdits.Add(1)
	s.m.sessionFuncsReanalyzed.Add(int64(res.FuncsReanalyzed))
	s.m.sessionFuncsReused.Add(int64(res.FuncsReused))
	s.writeJSON(w, http.StatusOK, sessionResponse(req.SessionID, entry.session.Name(), res))
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	var req cfix.SessionCloseRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.sessions.remove(req.SessionID) {
		s.writeError(w, http.StatusNotFound, "unknown session "+req.SessionID)
		return
	}
	s.writeJSON(w, http.StatusOK, cfix.SessionCloseResponse{SessionID: req.SessionID, Closed: true})
}

// observeSessionSpans folds the spans a session operation recorded into
// the per-stage metrics, so incremental re-analyses show up under
// "incremental" next to the batch pipeline's stages.
func (s *Server) observeSessionSpans(entry *sessionEntry) {
	for _, sp := range entry.tracer.Drain() {
		s.m.observeStage(sp.Name, sp.Dur, sp.Degraded())
	}
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
