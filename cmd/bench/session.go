package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/edit"
	"repro/internal/incremental"
	"repro/internal/server"
	"repro/pkg/cfix"
)

// session is an editor on a large file: two clients, each with its own
// incremental session opened through cfixd's /v1/session endpoints on
// the synthetic large TU — the libtiff corpus concatenated into one unit
// plus toggleFuncs planted functions, about 4,600 lines and 540
// functions in all. Each client edits in a closed loop, and every edit,
// as in cmd/cfixlsp's -bench, changes one number in one function, so it
// dirties exactly that function: here it flips a seeded planted buffer
// write between overflowing and safe. After sessionEdits edits the
// editor closes the document and opens it again. It is the only workload
// that reuses memoized per-function facts across requests.

const (
	sessionClients = 2
	sessionFiller  = 2
	toggleFuncs    = 24
	// sessionEdits is how many edits an editor makes in one session. The
	// daemon's memory for a session grows with its edits, so a bounded
	// session keeps the work per edit and the heap the same however many
	// edits a run completes.
	sessionEdits = 200
	// sessionFile is the name the large unit is opened under.
	sessionFile = "tif_all.c"
)

// bufCWEs are the buffer-overflow oracle's classes; the planted toggles
// are the only definite findings among them in the session text.
var bufCWEs = map[int]bool{121: true, 122: true, 124: true, 126: true, 127: true, 242: true}

// editor is one client's view of its document.
type editor struct {
	rng  *rand.Rand
	text string
	// size is each toggle's buffer size and over whether its write
	// currently overflows it.
	size []int
	over []bool
	id   string
	// edits counts the edits made in the open session.
	edits int
}

// sessionText builds the large unit with every toggle's initial state.
func sessionText(rng *rand.Rand) (text string, size []int, over []bool, err error) {
	p, ok := corpus.ProjectByName("libtiff", sessionFiller)
	if !ok {
		return "", nil, nil, fmt.Errorf("session: corpus has no libtiff project")
	}
	var sb strings.Builder
	sb.WriteString(p.ConcatenatedUnit())
	size, over = make([]int, toggleFuncs), make([]bool, toggleFuncs)
	for k := range size {
		size[k], over[k] = 8+rng.Intn(56), rng.Intn(2) == 0
		fmt.Fprintf(&sb, "\nvoid bench_toggle%d(void) {\n    char buf%d[%d];\n    memset(buf%d, 'A', %d);\n}\n",
			k, k, size[k], k, writeLen(size[k], over[k]))
	}
	return sb.String(), size, over, nil
}

// writeLen is the memset length of a toggle: past the end when over.
func writeLen(size int, over bool) int {
	if over {
		return size + 8
	}
	return size / 2
}

// next draws the editor's next edit, applies it to its own copy of the
// text, and returns it as a delta against the previous text.
func (e *editor) next() cfix.SessionDelta {
	k := e.rng.Intn(toggleFuncs)
	marker := fmt.Sprintf("memset(buf%d, 'A', ", k)
	width := len(fmt.Sprint(writeLen(e.size[k], e.over[k])))
	e.over[k] = !e.over[k]
	repl := fmt.Sprint(writeLen(e.size[k], e.over[k]))
	at := strings.Index(e.text, marker) + len(marker)
	e.text = e.text[:at] + repl + e.text[at+width:]
	return cfix.SessionDelta{Pos: at, End: at + width, Text: repl}
}

// want is the number of definite buffer-overflow findings the editor's
// text must have.
func (e *editor) want() int {
	n := 0
	for _, o := range e.over {
		if o {
			n++
		}
	}
	return n
}

func checkSession(e *editor, fs []cfix.SessionFindingJSON) error {
	got := 0
	for _, f := range fs {
		if f.Severity == "definite" && bufCWEs[f.CWE] {
			got++
		}
	}
	if got != e.want() {
		return fmt.Errorf("session: %d definite overflows, want the %d planted", got, e.want())
	}
	return nil
}

type sessionRun struct {
	editors []*editor
	ts      *httptest.Server
	client  *cfix.Client
}

func setupSession(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	text, size, over, err := sessionText(rng)
	if err != nil {
		return nil, err
	}
	r := &sessionRun{}
	srv := server.New(server.Config{Log: log.New(io.Discard, "", 0)})
	r.ts = httptest.NewServer(srv.Handler())
	r.client = cfix.NewClient(r.ts.URL)
	r.client.MaxRetries = -1
	r.client.HTTPClient = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: sessionClients, MaxIdleConnsPerHost: sessionClients,
	}}
	for c := 0; c < sessionClients; c++ {
		e := &editor{rng: rand.New(rand.NewSource(rng.Int63())), text: text,
			size: append([]int(nil), size...), over: append([]bool(nil), over...)}
		r.editors = append(r.editors, e)
		if err := r.open(context.Background(), e); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// open starts a session on the editor's current text and checks its
// findings.
func (r *sessionRun) open(ctx context.Context, e *editor) error {
	resp, err := r.client.SessionOpen(ctx, cfix.SessionOpenRequest{Filename: sessionFile, Source: e.text})
	if err != nil {
		return err
	}
	e.id, e.edits = resp.SessionID, 0
	return checkSession(e, resp.Findings)
}

func (r *sessionRun) measure(tl *tally, warm, deadline time.Time) measurement {
	ctx := context.Background()
	return closedLoop(tl, sessionClients, warm, deadline, func(w, _ int) (time.Duration, error) {
		e := r.editors[w]
		if e.edits == sessionEdits {
			// Reopening is not an edit: it takes wall time but records
			// no latency.
			_, err := r.client.SessionClose(ctx, cfix.SessionCloseRequest{SessionID: e.id})
			if err == nil {
				err = r.open(ctx, e)
			}
			if err != nil {
				return 0, err
			}
		}
		e.edits++
		d := e.next()
		start := time.Now()
		resp, err := r.client.SessionEdit(ctx, cfix.SessionEditRequest{SessionID: e.id, Deltas: []cfix.SessionDelta{d}})
		took := time.Since(start)
		if err != nil {
			return took, err
		}
		return took, checkSession(e, resp.Findings)
	})
}

func (r *sessionRun) verify(*tally) {}

// trace replays one editor's edits against an in-process session with a
// stage tracer attached, reopened every sessionEdits edits as in a plain
// run; each edit is an op.
func (r *sessionRun) trace(tl *tally, tr *tracer, deadline time.Time) error {
	ctx := context.Background()
	e := r.editors[0]
	var rt *cfix.Tracer
	var sess *incremental.Session
	var reused, reanalyzed int
	for edits := 0; time.Now().Before(deadline); edits++ {
		if edits%sessionEdits == 0 {
			rt = cfix.NewTracer()
			var err error
			if sess, _, err = incremental.Open(ctx, sessionFile, e.text, incremental.Config{Tracer: rt}); err != nil {
				return err
			}
		}
		prev := e.text
		deltas := cfix.ToDeltas([]cfix.SessionDelta{e.next()})
		seen := rt.Len()
		var res *incremental.Result
		_, err := tr.entry(func() (err error) {
			res, err = sess.Edit(ctx, deltas)
			return err
		})
		if err == nil {
			err = checkSession(e, cfix.NewSessionFindingsJSON(res.Findings))
		}
		if !tl.check(err) {
			continue
		}
		reused += res.FuncsReused
		reanalyzed += res.FuncsReanalyzed
		d, _ := tr.measure(func() {
			if s := edit.NewScript(edit.Minimize(prev, deltas)...); s.Validate(len(prev)) == nil {
				s.Apply(prev)
			}
		})
		tr.add(lEdit, d)
		in, err := tr.frontend(sessionFile, e.text, nil)
		if err != nil {
			return err
		}
		tr.charge(rt.Spans()[seen:], map[string]*frontCost{sessionFile: in})
		tr.countSites(res.Sites)
	}
	ops := float64(max(tr.ops, 1))
	tr.extra["incremental.edit_ms_per_op"] = tr.entryMs / ops
	tr.extra["incremental.reuse_ratio"] = ratio(float64(reused), float64(reused+reanalyzed))
	tr.extra["incremental.reanalyzed_per_edit"] = float64(reanalyzed) / ops
	return nil
}

// countSites adds a session's repair sites to the precision sentinels.
func (t *tracer) countSites(sites []incremental.Site) {
	for _, s := range sites {
		applied, total := &t.strApplied, &t.strVar
		if s.Kind == incremental.SiteSLR {
			applied, total = &t.slrApplied, &t.slrSite
		}
		*total++
		if s.Eligible {
			*applied++
		}
	}
}

func (r *sessionRun) close() {
	if r.client != nil {
		if t, ok := r.client.HTTPClient.Transport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
	r.ts.Close()
}
