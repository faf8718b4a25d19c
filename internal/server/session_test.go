package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/pkg/cfix"
)

// twoFn is two independent overflowing functions, so a one-function
// edit leaves the other's facts memoized.
const twoFn = `
void first(void) {
    char a[8];
    strcpy(a, "0123456789");
}

void second(void) {
    char b[8];
    strcpy(b, "abcdefghij");
}
`

func openSession(t *testing.T, url, src string) cfix.SessionResponse {
	t.Helper()
	var resp cfix.SessionResponse
	status, raw := postJSON(t, url+"/v1/session/open",
		cfix.SessionOpenRequest{Filename: "s.c", Source: src, Options: cfix.RequestOptions{Checks: "all"}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("open: %d %s", status, raw)
	}
	if resp.SessionID == "" {
		t.Fatal("open answered without a session id")
	}
	return resp
}

func TestSessionOpenEditClose(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	resp := openSession(t, ts.URL, twoFn)
	if len(resp.Findings) == 0 || len(resp.Sites) == 0 {
		t.Fatalf("open found nothing: %+v", resp)
	}

	// A comment-only edit must reuse every function.
	at := strings.Index(twoFn, "void second")
	var edited cfix.SessionResponse
	status, raw := postJSON(t, ts.URL+"/v1/session/edit", cfix.SessionEditRequest{
		SessionID: resp.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: at, End: at, Text: "/* note */\n"}},
	}, &edited)
	if status != http.StatusOK {
		t.Fatalf("edit: %d %s", status, raw)
	}
	if edited.FuncsReanalyzed != 0 || edited.FuncsReused != 2 {
		t.Fatalf("comment edit: reanalyzed=%d reused=%d", edited.FuncsReanalyzed, edited.FuncsReused)
	}

	// The session diagnostics must be byte-identical to /v1/lint on the
	// same text.
	newText := twoFn[:at] + "/* note */\n" + twoFn[at:]
	var lint cfix.LintResponse
	status, raw = postJSON(t, ts.URL+"/v1/lint",
		cfix.LintRequest{Filename: "s.c", Source: newText, Options: cfix.RequestOptions{Checks: "all"}}, &lint)
	if status != http.StatusOK {
		t.Fatalf("lint: %d %s", status, raw)
	}
	plain := make([]cfix.FindingJSON, len(edited.Findings))
	for i, f := range edited.Findings {
		plain[i] = f.FindingJSON
	}
	if !reflect.DeepEqual(plain, lint.Findings) {
		t.Fatalf("session findings diverge from /v1/lint:\nsession: %+v\nlint:    %+v", plain, lint.Findings)
	}

	var closed cfix.SessionCloseResponse
	status, raw = postJSON(t, ts.URL+"/v1/session/close",
		cfix.SessionCloseRequest{SessionID: resp.SessionID}, &closed)
	if status != http.StatusOK || !closed.Closed {
		t.Fatalf("close: %d %s", status, raw)
	}
	// Closing again is the client's mistake.
	status, _ = postJSON(t, ts.URL+"/v1/session/close",
		cfix.SessionCloseRequest{SessionID: resp.SessionID}, nil)
	if status != http.StatusNotFound {
		t.Fatalf("double close answered %d, want 404", status)
	}
}

func TestSessionEditUnknownID(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	status, _ := postJSON(t, ts.URL+"/v1/session/edit",
		cfix.SessionEditRequest{SessionID: "sess-none"}, nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown session answered %d, want 404", status)
	}
}

func TestSessionParseBreakingEditAnswers422AndKeepsSession(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp := openSession(t, ts.URL, twoFn)

	status, _ := postJSON(t, ts.URL+"/v1/session/edit", cfix.SessionEditRequest{
		SessionID: resp.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: 0, End: 0, Text: ")))"}},
	}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("parse-breaking edit answered %d, want 422", status)
	}

	// The session must still serve edits on its previous text.
	var edited cfix.SessionResponse
	status, raw := postJSON(t, ts.URL+"/v1/session/edit", cfix.SessionEditRequest{
		SessionID: resp.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: 0, End: 0, Text: "/* ok */"}},
	}, &edited)
	if status != http.StatusOK {
		t.Fatalf("edit after failure: %d %s", status, raw)
	}
}

func TestSessionTableCap(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxSessions: 2})
	openSession(t, ts.URL, twoFn)
	openSession(t, ts.URL, twoFn)
	status, raw := postJSON(t, ts.URL+"/v1/session/open",
		cfix.SessionOpenRequest{Source: twoFn}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-cap open answered %d (%s), want 429", status, raw)
	}
}

func TestSessionMetricsCounters(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	resp := openSession(t, ts.URL, twoFn)

	at := strings.Index(twoFn, "a[8]") + len("a[")
	status, raw := postJSON(t, ts.URL+"/v1/session/edit", cfix.SessionEditRequest{
		SessionID: resp.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: at, End: at + 1, Text: "9"}},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("edit: %d %s", status, raw)
	}

	m := srv.Metrics()
	if m.Sessions.Open != 1 || m.Sessions.Opens != 1 {
		t.Fatalf("session gauges: %+v", m.Sessions)
	}
	if m.Sessions.EditsApplied != 1 {
		t.Fatalf("edits_applied = %d", m.Sessions.EditsApplied)
	}
	if m.Sessions.FuncsReanalyzed != 1 || m.Sessions.FuncsReused != 1 {
		t.Fatalf("funcs counters: %+v", m.Sessions)
	}
	// The incremental re-analysis must surface as a stage histogram.
	if _, ok := m.Stages["incremental"]; !ok {
		t.Fatalf("no incremental stage in metrics: %v", mapsKeys(m.Stages))
	}

	postJSON(t, ts.URL+"/v1/session/close", cfix.SessionCloseRequest{SessionID: resp.SessionID}, nil)
	if got := srv.Metrics().Sessions.Open; got != 0 {
		t.Fatalf("sessions_open after close = %d", got)
	}
}

func mapsKeys(m map[string]StageSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSessionSpansObservedOnce: every span a session records reaches
// /metrics exactly once, and the daemon keeps none of them once the
// request that recorded them has answered.
func TestSessionSpansObservedOnce(t *testing.T) {
	const editors, perEditor = 3, 4
	srv, ts, _ := newTestServer(t, Config{MaxInFlight: editors})
	resp := openSession(t, ts.URL, twoFn)
	entry := srv.sessions.get(resp.SessionID)
	if n := entry.tracer.Len(); n != 0 {
		t.Fatalf("tracer holds %d spans after open, want 0", n)
	}

	// Comment insertions commute, so concurrent editors may land them in
	// any order.
	body, err := json.Marshal(cfix.SessionEditRequest{
		SessionID: resp.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: 0, End: 0, Text: "/* e */\n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, editors*perEditor)
	for e := 0; e < editors; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEditor; i++ {
				r, err := http.Post(ts.URL+"/v1/session/edit", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				raw, _ := io.ReadAll(r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", r.StatusCode, raw)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("edit: %v", err)
	}

	const edits = editors * perEditor
	if n := entry.tracer.Len(); n != 0 {
		t.Fatalf("tracer holds %d spans after %d edits, want 0", n, edits)
	}
	var m Snapshot
	if status := getJSON(t, ts.URL+"/metrics", &m); status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	if got := m.Stages[obs.StageIncremental].Count; got != edits {
		t.Fatalf("incremental stage count = %d after %d edits, want exactly %d", got, edits, edits)
	}
	// One dependency-hash pass per analysis: the open's and each edit's.
	if got := m.Stages[obs.StageHashes].Count; got != edits+1 {
		t.Fatalf("hashes stage count = %d, want %d", got, edits+1)
	}
}
