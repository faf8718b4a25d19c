package cfix_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/edit"
	"repro/internal/server"
	"repro/pkg/cfix"
)

// toggles is how many planted functions the session unit has.
const toggles = 24

// sessionUnit is the session workload's document: the libtiff corpus
// concatenated into one unit (filler 2) plus planted functions, each a
// memset that an edit moves between safe and overflowing.
func sessionUnit(tb testing.TB) string {
	p, ok := corpus.ProjectByName("libtiff", 2)
	if !ok {
		tb.Fatal("corpus has no libtiff project")
	}
	var sb strings.Builder
	sb.WriteString(p.ConcatenatedUnit())
	for k := 0; k < toggles; k++ {
		fmt.Fprintf(&sb, "\nvoid bench_toggle%d(void) {\n    char buf%d[16];\n    memset(buf%d, 'A', 10);\n}\n", k, k, k)
	}
	return sb.String()
}

// toggle flips planted function k's memset length between 10 (safe)
// and 24 (past the end) in text, returning the delta and the new text.
func toggle(text string, k int) (cfix.SessionDelta, string) {
	marker := fmt.Sprintf("memset(buf%d, 'A', ", k)
	at := strings.Index(text, marker) + len(marker)
	old, repl := text[at:at+2], "24"
	if old == "24" {
		repl = "10"
	}
	return cfix.SessionDelta{Pos: at, End: at + 2, Text: repl}, text[:at] + repl + text[at+2:]
}

// smallUnit has a global buffer, same-named functions around another
// (they form one group) and findings and sites in most functions.
const smallUnit = `
static char table[8];

void twice(void) {
    char a[8];
    strcpy(a, "0123456789");
}

void second(int n) {
    char b[16];
    memset(b, 0, n + 32);
    table[n] = 'x';
}

void twice(void) {
    char c[8];
    strcpy(c, "abc");
}

int third(void) {
    char *p;
    p = malloc(8);
    p[9] = 'x';
    return p[0];
}
`

// recorder keeps the body of the latest answer it carried.
type recorder struct {
	mu   sync.Mutex
	body []byte
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.body = body
	r.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// last returns the body of the latest answer.
func (r *recorder) last() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body
}

// daemon is an in-process cfixd with a Client whose answers it records.
type daemon struct {
	tb     testing.TB
	ts     *httptest.Server
	client *cfix.Client
	rec    *recorder
}

func newDaemon(tb testing.TB) *daemon {
	ts := httptest.NewServer(server.New(server.Config{Log: log.New(io.Discard, "", 0)}).Handler())
	tb.Cleanup(ts.Close)
	d := &daemon{tb: tb, ts: ts, client: cfix.NewClient(ts.URL), rec: &recorder{}}
	d.client.HTTPClient = &http.Client{Transport: d.rec}
	return d
}

// post sends req to path without the Client and returns the status and
// the answer's bytes.
func (d *daemon) post(path string, req any) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(d.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// answer posts req and decodes its 200 answer.
func (d *daemon) answer(path string, req any) *cfix.SessionResponse {
	d.tb.Helper()
	status, data, err := d.post(path, req)
	if err != nil || status != http.StatusOK {
		d.tb.Fatalf("%s: %d %s %v", path, status, data, err)
	}
	var resp cfix.SessionResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		d.tb.Fatal(err)
	}
	return &resp
}

// pair is one document in two sessions: one through the daemon's
// Client, which names its base and applies the changed answers, and a
// twin through requests without a base, every answer of which is the
// full state.
type pair struct {
	d        *daemon
	id, twin string
}

func (d *daemon) open(text string) *pair {
	d.tb.Helper()
	req := cfix.SessionOpenRequest{Filename: "s.c", Source: text}
	got, err := d.client.SessionOpen(context.Background(), req)
	if err != nil {
		d.tb.Fatal(err)
	}
	want := d.answer("/v1/session/open", req)
	p := &pair{d: d, id: got.SessionID, twin: want.SessionID}
	if err := p.same(got, want, "open"); err != nil {
		d.tb.Fatal(err)
	}
	return p
}

// edit applies deltas to both sessions and reports whether they
// applied. It is an error for one session to refuse what the other
// applied, or for the Client's answer to differ from the twin's full one.
func (p *pair) edit(deltas []cfix.SessionDelta) (bool, error) {
	got, err := p.d.client.SessionEdit(context.Background(), cfix.SessionEditRequest{SessionID: p.id, Deltas: deltas})
	status, data, perr := p.d.post("/v1/session/edit", cfix.SessionEditRequest{SessionID: p.twin, Deltas: deltas})
	if perr != nil {
		return false, perr
	}
	if (err == nil) != (status == http.StatusOK) {
		return false, fmt.Errorf("edit %v: client error %v, twin answered %d %s", deltas, err, status, data)
	}
	if err != nil {
		return false, nil
	}
	var want cfix.SessionResponse
	if err := json.Unmarshal(data, &want); err != nil {
		return false, err
	}
	return true, p.same(got, &want, fmt.Sprintf("edit %v", deltas))
}

// same reports an error unless the Client's answer is the twin's full
// answer.
func (p *pair) same(got, want *cfix.SessionResponse, what string) error {
	w := *want
	w.SessionID = p.id
	if !reflect.DeepEqual(got, &w) {
		return fmt.Errorf("%s: client state differs from the full answer\nclient: %+v\nfull:   %+v", what, got, &w)
	}
	return nil
}

// changed decodes the latest recorded answer as a changed answer.
func (d *daemon) changed() cfix.SessionResponse {
	d.tb.Helper()
	var resp cfix.SessionResponse
	if err := json.Unmarshal(d.rec.last(), &resp); err != nil {
		d.tb.Fatal(err)
	}
	if resp.Base == 0 {
		d.tb.Fatalf("the Client got a full answer: %s", d.rec.last())
	}
	return resp
}

// TestSessionAnswersToggleStream makes 200 one-number toggle edits of
// the session unit through a Client. After each the Client's state is
// the full answer, the answer on the wire carries exactly the toggled
// function's lists, and the median answer is under 4 KB.
func TestSessionAnswersToggleStream(t *testing.T) {
	if testing.Short() {
		t.Skip("edits the 100 KB session unit 400 times")
	}
	d := newDaemon(t)
	text := sessionUnit(t)
	p := d.open(text)
	full := len(d.rec.last())
	var sizes []int
	for i := 0; i < 200; i++ {
		k := (i * 7) % toggles
		var delta cfix.SessionDelta
		delta, text = toggle(text, k)
		if ok, err := p.edit([]cfix.SessionDelta{delta}); !ok || err != nil {
			t.Fatalf("edit %d: applied %v, %v", i, ok, err)
		}
		ans := d.changed()
		if want := []string{fmt.Sprintf("bench_toggle%d", k)}; !reflect.DeepEqual(ans.Changed, want) {
			t.Fatalf("edit %d: answer changes %v, want %v", i, ans.Changed, want)
		}
		sizes = append(sizes, len(d.rec.last()))
	}
	sort.Ints(sizes)
	median := sizes[len(sizes)/2]
	t.Logf("open answer %d B; edit answers: median %d B, max %d B", full, median, sizes[len(sizes)-1])
	if median >= 4096 {
		t.Fatalf("median edit answer %d B, want under 4 KB", median)
	}
}

// TestSessionAnswersStaleBase: an edit naming a version the session is
// not on gets the full state, and the Client that held that version
// takes it.
func TestSessionAnswersStaleBase(t *testing.T) {
	d := newDaemon(t)
	p := d.open(smallUnit)
	at := strings.Index(smallUnit, "a[8]") + len("a[")
	moved := d.answer("/v1/session/edit", cfix.SessionEditRequest{SessionID: p.id, Base: 1,
		Deltas: []cfix.SessionDelta{{Pos: at, End: at + 1, Text: "9"}}})
	if moved.Base != 1 || moved.Version != 2 {
		t.Fatalf("edit on base 1: base %d version %d, want a changed answer from 1 to 2", moved.Base, moved.Version)
	}
	stale := d.answer("/v1/session/edit", cfix.SessionEditRequest{SessionID: p.id, Base: 1,
		Deltas: []cfix.SessionDelta{{Pos: 0, End: 0, Text: "/* c */\n"}}})
	if stale.Base != 0 || stale.Version != 3 || stale.Changed != nil || len(stale.Findings) == 0 {
		t.Fatalf("edit on stale base 1: %+v, want the full state of version 3", stale)
	}
	// The twin catches up on the same text; the Client still holds
	// version 1, so its next edit gets the full state.
	p.d.answer("/v1/session/edit", cfix.SessionEditRequest{SessionID: p.twin,
		Deltas: []cfix.SessionDelta{{Pos: at, End: at + 1, Text: "9"}}})
	p.d.answer("/v1/session/edit", cfix.SessionEditRequest{SessionID: p.twin,
		Deltas: []cfix.SessionDelta{{Pos: 0, End: 0, Text: "/* c */\n"}}})
	if ok, err := p.edit([]cfix.SessionDelta{{Pos: 0, End: 0, Text: "\n"}}); !ok || err != nil {
		t.Fatalf("applied %v, %v", ok, err)
	}
	var full cfix.SessionResponse
	if err := json.Unmarshal(d.rec.last(), &full); err != nil || full.Base != 0 {
		t.Fatalf("the Client's edit on stale base 1 got base %d (%v), want the full state", full.Base, err)
	}
	if v, _ := cfix.HeldVersion(d.client, p.id); v != 4 {
		t.Fatalf("client holds version %d, want 4", v)
	}
}

// TestSessionAnswersInterleaved runs two sessions on one Client at once,
// as the session benchmark does; each stays the full answer.
func TestSessionAnswersInterleaved(t *testing.T) {
	d := newDaemon(t)
	pairs := []*pair{d.open(smallUnit), d.open(smallUnit)}
	var wg sync.WaitGroup
	for w, p := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			text := smallUnit
			for i := 0; i < 20; i++ {
				// Flip one buffer size digit per edit, a different
				// function on each session.
				name := []string{"a[", "b[1", "c["}[(i+w)%3]
				at := strings.Index(text, name) + len(name)
				repl := string("98"[i%2])
				if ok, err := p.edit([]cfix.SessionDelta{{Pos: at, End: at + 1, Text: repl}}); !ok || err != nil {
					t.Errorf("session %d edit %d: applied %v, %v", w, i, ok, err)
					return
				}
				text = text[:at] + repl + text[at+1:]
			}
		}()
	}
	wg.Wait()
}

// TestSessionAnswersFailedEdit: an edit the server refuses (an
// overlapping script) leaves the Client and the server on the previous
// version, and the next edit is a changed answer from there.
func TestSessionAnswersFailedEdit(t *testing.T) {
	d := newDaemon(t)
	p := d.open(smallUnit)
	if ok, err := p.edit([]cfix.SessionDelta{{Pos: 0, End: 0, Text: "\n"}}); !ok || err != nil {
		t.Fatalf("applied %v, %v", ok, err)
	}
	if ok, err := p.edit([]cfix.SessionDelta{{Pos: 10, End: 20, Text: "x"}, {Pos: 15, End: 25, Text: "y"}}); ok || err != nil {
		t.Fatalf("overlapping script: applied %v, %v", ok, err)
	}
	if v, _ := cfix.HeldVersion(d.client, p.id); v != 2 {
		t.Fatalf("client holds version %d after the failed edit, want 2", v)
	}
	if ok, err := p.edit([]cfix.SessionDelta{{Pos: 0, End: 0, Text: "/* ok */"}}); !ok || err != nil {
		t.Fatalf("applied %v, %v", ok, err)
	}
	if ans := d.changed(); ans.Base != 2 || ans.Version != 3 {
		t.Fatalf("edit after the failure: base %d version %d, want 2 and 3", ans.Base, ans.Version)
	}
}

// TestSessionCloseDropsClientState: the Client holds state for each
// session it opened until it closes it.
func TestSessionCloseDropsClientState(t *testing.T) {
	d := newDaemon(t)
	a, b := d.open(smallUnit), d.open(smallUnit)
	if _, err := d.client.SessionClose(context.Background(), cfix.SessionCloseRequest{SessionID: a.id}); err != nil {
		t.Fatal(err)
	}
	if _, held := cfix.HeldVersion(d.client, a.id); held {
		t.Fatal("the Client still holds the closed session's state")
	}
	if v, held := cfix.HeldVersion(d.client, b.id); !held || v != 1 {
		t.Fatalf("the open session's state: version %d held %v", v, held)
	}
}

// FuzzSessionAnswers drives fuzzer-chosen edit scripts through a Client
// on an in-process cfixd and, after each edit, requires the Client's
// state to be the full answer a twin session gets. Each four bytes of
// script make one request: a kind, a position and a length.
func FuzzSessionAnswers(f *testing.F) {
	digit := strings.Index(smallUnit, "b[16]") + len("b[1")
	fn := strings.Index(smallUnit, "void second")
	f.Add([]byte{0, byte(fn), byte(fn >> 8), 0}, "/* c */\n")
	f.Add([]byte{2, byte(digit), byte(digit >> 8), 1}, "2")
	f.Add([]byte{1, byte(fn), byte(fn >> 8), 120, 3, 10, 0, 30}, "\n\n")
	f.Add([]byte{3, 0, 0, 4, 0, 255, 255, 0}, "x")
	f.Fuzz(func(t *testing.T, script []byte, text string) {
		if len(text) > 64 {
			text = text[:64]
		}
		p := newDaemon(t).open(smallUnit)
		cur := smallUnit
		for i := 0; i+4 <= len(script) && i < 24; i += 4 {
			kind, n := script[i]%4, int(script[i+3])
			pos := (int(script[i+1]) | int(script[i+2])<<8) % (len(cur) + 1)
			end := min(pos+n, len(cur))
			var deltas []cfix.SessionDelta
			switch kind {
			case 0:
				deltas = []cfix.SessionDelta{{Pos: pos, End: pos, Text: text}}
			case 1:
				deltas = []cfix.SessionDelta{{Pos: pos, End: end}}
			case 2:
				deltas = []cfix.SessionDelta{{Pos: pos, End: end, Text: text}}
			case 3:
				// Two deltas in one request, in either order, possibly
				// overlapping.
				at := (pos + n*7) % (len(cur) + 1)
				deltas = []cfix.SessionDelta{{Pos: at, End: min(at+n%8, len(cur)), Text: text}, {Pos: pos, End: pos, Text: "\n"}}
			}
			ok, err := p.edit(deltas)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			next, err := edit.NewScript(edit.Minimize(cur, cfix.ToDeltas(deltas))...).Apply(cur)
			if err != nil {
				t.Fatalf("the server applied %v, which does not apply: %v", deltas, err)
			}
			cur = next
		}
	})
}
