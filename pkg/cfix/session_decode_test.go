package cfix_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/samate"
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

// daemon is an in-process cfixd whose raw answers the tests read.
type daemon struct {
	tb testing.TB
	ts *httptest.Server
}

func newDaemon(tb testing.TB) *daemon {
	ts := httptest.NewServer(server.New(server.Config{Log: log.New(io.Discard, "", 0)}).Handler())
	tb.Cleanup(ts.Close)
	return &daemon{tb: tb, ts: ts}
}

// post sends req to path and returns the 200 answer's bytes.
func (d *daemon) post(path string, req any) []byte {
	d.tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		d.tb.Fatal(err)
	}
	resp, err := http.Post(d.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		d.tb.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		d.tb.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		d.tb.Fatalf("%s: %d %s", path, resp.StatusCode, data)
	}
	return data
}

// sessionAnswers opens the session unit and makes n one-toggle edits,
// returning the open answer and then each edit answer.
func (d *daemon) sessionAnswers(n int) [][]byte {
	text := sessionUnit(d.tb)
	open := d.post("/v1/session/open", cfix.SessionOpenRequest{Filename: "tif_all.c", Source: text})
	var id struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(open, &id); err != nil {
		d.tb.Fatal(err)
	}
	out := [][]byte{open}
	for i := 0; i < n; i++ {
		var delta cfix.SessionDelta
		delta, text = toggle(text, (i*7)%toggles)
		out = append(out, d.post("/v1/session/edit",
			cfix.SessionEditRequest{SessionID: id.SessionID, Deltas: []cfix.SessionDelta{delta}}))
	}
	return out
}

// checkFast fails unless the one-pass path itself decodes data to
// encoding/json's value, and returns that value.
func checkFast(t *testing.T, name string, data []byte) cfix.SessionResponse {
	t.Helper()
	var want cfix.SessionResponse
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: encoding/json: %v", name, err)
	}
	got, ok := cfix.DecodeSessionFast(data)
	if !ok {
		t.Fatalf("%s: the one-pass path fell back on a cfixd answer", name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: one-pass value differs from encoding/json's", name)
	}
	return want
}

// TestSessionDecodeFastPath checks that the one-pass path, not the
// encoding/json fallback, decodes what cfixd answers: an open and 50
// edits of the session unit, and an open of every tenth SAMATE program
// with every oracle on. It also holds the decoder to a third of
// encoding/json's allocations on an edit answer.
func TestSessionDecodeFastPath(t *testing.T) {
	d := newDaemon(t)
	answers := d.sessionAnswers(50)
	for i, data := range answers {
		if resp := checkFast(t, fmt.Sprintf("session answer %d", i), data); len(resp.Findings) == 0 || len(resp.Sites) == 0 {
			t.Fatalf("session answer %d has no findings or sites", i)
		}
	}

	all := samate.GenerateAll()
	cwes := make([]int, 0, len(all))
	for cwe := range all {
		cwes = append(cwes, cwe)
	}
	sort.Ints(cwes)
	n := 0
	for _, cwe := range cwes {
		for i, p := range all[cwe] {
			if i%10 != 0 {
				continue
			}
			resp := checkFast(t, p.ID, d.post("/v1/session/open", cfix.SessionOpenRequest{
				Filename: p.ID + ".c", Source: p.Source, Options: cfix.RequestOptions{Checks: "all"}}))
			d.post("/v1/session/close", cfix.SessionCloseRequest{SessionID: resp.SessionID})
			n++
		}
	}
	if n < 450 {
		t.Fatalf("checked %d SAMATE programs, want every tenth of 4,505", n)
	}

	edit := answers[1]
	fast := testing.AllocsPerRun(5, func() { cfix.DecodeSessionFast(edit) })
	slow := testing.AllocsPerRun(5, func() {
		var r cfix.SessionResponse
		json.Unmarshal(edit, &r)
	})
	if 3*fast > slow {
		t.Fatalf("one-pass decode makes %.0f allocations, encoding/json %.0f: want at most a third", fast, slow)
	}
}

// BenchmarkSessionResponseDecode decodes one edit answer of the session
// unit with the client's decoder and with encoding/json.
func BenchmarkSessionResponseDecode(b *testing.B) {
	data := newDaemon(b).sessionAnswers(1)[1]
	b.Run("decoder", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r cfix.SessionResponse
			if err := cfix.DecodeSessionResponse(data, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r cfix.SessionResponse
			if err := json.Unmarshal(data, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzSessionResponseDecode holds the client's session decoder to
// encoding/json on arbitrary bytes: the same value, and an error
// exactly when encoding/json errs. A value the one-pass path accepts
// must be one encoding/json accepts, with the same value.
func FuzzSessionResponseDecode(f *testing.F) {
	answers := newDaemon(f).sessionAnswers(1)
	f.Add(answers[0])
	f.Add(answers[1])
	for _, s := range []string{
		`{"session_id":"s1","findings":[{"message":"a \u003c b \u0026\u0026 c \u003e d","fix":"\ufffd\u2028\u2029","file":"x\n\t\"\\\/\b\f\r.c"}],"sites":[]}`,
		`{"findings":[{"message":"\ud83d\ude00 pair"}]}`,
		`{"findings":[{"message":"\ud83d lone"}]}`,
		"{\"session_id\":\"\xff\xfe\"}",
		"{\"session_id\":\"ok \xe2\x82\xac\"}",
		`{"Session_ID":"folded","sites":[{"KIND":"slr"}]}`,
		`{"session_id":"a","session_id":"b"}`,
		`{"sites":[{"kind":"slr","kind":"str"}]}`,
		`{"session_id":null,"findings":null,"sites":[null]}`,
		`{"funcs_reused":1.5,"funcs_reanalyzed":1e2}`,
		`{"funcs_reused":-0,"funcs_reanalyzed":99999999999999999999}`,
		`{"unknown":{"a":[1,-2.5e+3,true,false,null,"A"]},"sites":[]} `,
		`{"findings":[{"contexts":["a","b"],"degraded":true,"line":3}]} x`,
		` {"findings":[],"sites":[]}` + "\n",
		`null`,
		`[]`,
		`{"sites":[{"eligible":"yes"}]}`,
		`{"findings":[{"extent_pos":01}]}`,
		`{"session_id":"\u00zz"}`,
		`{"session_id":"tab	inside"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want cfix.SessionResponse
		wantErr := json.Unmarshal(data, &want)
		var got cfix.SessionResponse
		err := cfix.DecodeSessionResponse(data, &got)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decoder error %v, encoding/json error %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoder value %+v, encoding/json value %+v", got, want)
		}
		if fast, ok := cfix.DecodeSessionFast(data); ok {
			if wantErr != nil {
				t.Fatalf("one-pass path accepted what encoding/json rejects: %v", wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("one-pass value %+v, encoding/json value %+v", fast, want)
			}
		}
	})
}
