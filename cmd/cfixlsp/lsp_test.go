package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/intflow"
	"repro/internal/overflow"
)

// sample has two independent overflowing functions, so one-function
// edits leave the other memoized.
const sample = `void first(void) {
    char a[8];
    strcpy(a, "0123456789");
}

void second(void) {
    char b[8];
    strcpy(b, "abcdefghij");
}
`

const sampleURI = "file:///t/sample.c"

// pipe is an in-process byte stream: everything one end writes to it
// is read back by the peer. io.Pipe gives the blocking semantics a
// JSON-RPC connection needs.
type pipe struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func newPipe() *pipe {
	r, w := io.Pipe()
	return &pipe{r: r, w: w}
}

func (p *pipe) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p *pipe) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *pipe) Close() error                { p.w.Close(); return p.r.Close() }

// harness runs an lspServer over in-process pipes and speaks framed
// JSON-RPC to it as the client; the server stays reachable for
// white-box inspection.
type harness struct {
	t   *testing.T
	srv *lspServer
	out *writer
	in  *bufio.Reader
}

func newHarness(t *testing.T, backendName string) *harness {
	t.Helper()
	toSrv, toClient := newPipe(), newPipe()
	srv := newLSPServer(toClient, backendName, "all", log.New(io.Discard, "", 0))
	done := make(chan error, 1)
	go func() { done <- srv.run(toSrv) }()
	h := &harness{t: t, srv: srv, out: &writer{out: toSrv}, in: bufio.NewReader(toClient)}
	t.Cleanup(func() {
		h.notify("exit", nil)
		toSrv.Close()
		if err := <-done; err != nil {
			t.Errorf("server loop: %v", err)
		}
	})
	return h
}

func (h *harness) request(id int, method string, params any) {
	h.t.Helper()
	if err := h.out.write(struct {
		JSONRPC string `json:"jsonrpc"`
		ID      int    `json:"id"`
		Method  string `json:"method"`
		Params  any    `json:"params"`
	}{"2.0", id, method, params}); err != nil {
		h.t.Fatalf("write %s: %v", method, err)
	}
}

func (h *harness) notify(method string, params any) {
	h.t.Helper()
	if err := h.out.write(struct {
		JSONRPC string `json:"jsonrpc"`
		Method  string `json:"method"`
		Params  any    `json:"params"`
	}{"2.0", method, params}); err != nil {
		h.t.Fatalf("write %s: %v", method, err)
	}
}

// waitDiagnostics reads messages until the publishDiagnostics for the
// given document version arrives (any version when version < 0).
func (h *harness) waitDiagnostics(version int) publishDiagnosticsParams {
	h.t.Helper()
	for {
		body, err := readMessage(h.in)
		if err != nil {
			h.t.Fatalf("read: %v", err)
		}
		var msg struct {
			Method string          `json:"method"`
			Params json.RawMessage `json:"params"`
		}
		if err := json.Unmarshal(body, &msg); err != nil {
			h.t.Fatalf("unmarshal: %v", err)
		}
		if msg.Method != "textDocument/publishDiagnostics" {
			continue
		}
		var p publishDiagnosticsParams
		if err := json.Unmarshal(msg.Params, &p); err != nil {
			h.t.Fatalf("unmarshal diagnostics: %v", err)
		}
		if p.Version == version || version < 0 {
			return p
		}
	}
}

// response reads messages until the response for id arrives.
func (h *harness) response(id int) json.RawMessage {
	h.t.Helper()
	for {
		body, err := readMessage(h.in)
		if err != nil {
			h.t.Fatalf("read: %v", err)
		}
		var msg struct {
			ID     *int            `json:"id"`
			Result json.RawMessage `json:"result"`
			Error  *rpcError       `json:"error"`
		}
		if err := json.Unmarshal(body, &msg); err != nil {
			h.t.Fatalf("unmarshal: %v", err)
		}
		if msg.ID == nil || *msg.ID != id {
			continue
		}
		if msg.Error != nil {
			h.t.Fatalf("request %d failed: %+v", id, msg.Error)
		}
		return msg.Result
	}
}

// open initializes the connection and opens sample as version 1,
// returning the first diagnostics.
func (h *harness) open(text string) publishDiagnosticsParams {
	h.t.Helper()
	h.request(1, "initialize", map[string]any{})
	h.response(1)
	h.notify("initialized", map[string]any{})
	h.notify("textDocument/didOpen", didOpenParams{
		TextDocument: textDocumentItem{URI: sampleURI, Version: 1, Text: text},
	})
	return h.waitDiagnostics(1)
}

func TestInitializeAdvertisesIncrementalSync(t *testing.T) {
	h := newHarness(t, "")
	h.request(1, "initialize", map[string]any{})
	var res initializeResult
	if err := json.Unmarshal(h.response(1), &res); err != nil {
		t.Fatal(err)
	}
	if res.Capabilities.TextDocumentSync.Change != 2 {
		t.Fatalf("sync change = %d, want 2 (incremental)", res.Capabilities.TextDocumentSync.Change)
	}
	if !res.Capabilities.CodeActionProvider {
		t.Fatal("codeActionProvider not advertised")
	}
}

func TestDidOpenPublishesOracleDiagnostics(t *testing.T) {
	h := newHarness(t, "")
	diags := h.open(sample)
	if len(diags.Diagnostics) < 2 {
		t.Fatalf("want >= 2 diagnostics for two overflows, got %+v", diags)
	}
	for _, d := range diags.Diagnostics {
		if d.Source != "cfix" {
			t.Fatalf("diagnostic source %q", d.Source)
		}
		if !strings.HasPrefix(d.Code, "CWE-") {
			t.Fatalf("diagnostic code %q", d.Code)
		}
		if d.Severity != 1 && d.Severity != 2 {
			t.Fatalf("diagnostic severity %d", d.Severity)
		}
	}
}

func TestIncrementalChangeReanalyzesOnlyDirtyFunction(t *testing.T) {
	h := newHarness(t, "")
	h.open(sample)

	// Grow first's buffer past the literal: its findings go away.
	at := strings.Index(sample, "a[8]") + len("a[")
	ovf0, int0 := overflow.Solves(), intflow.Solves()
	h.notify("textDocument/didChange", didChangeParams{
		TextDocument: versionedTextDocumentIdentifier{URI: sampleURI, Version: 2},
		ContentChanges: []contentChange{{
			Range: &lspRange{Start: lspPos(sample, at), End: lspPos(sample, at+1)},
			Text:  "99",
		}},
	})
	diags := h.waitDiagnostics(2)
	if o, i := overflow.Solves()-ovf0, intflow.Solves()-int0; o != 1 || i != 1 {
		t.Fatalf("one-function edit ran %d overflow and %d intflow solves, want 1 and 1", o, i)
	}

	newText := sample[:at] + "99" + sample[at+1:]
	want, err := core.Analyze(context.Background(), "sample.c", newText, core.Options{Checks: "all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags.Diagnostics) != len(want) {
		t.Fatalf("published %d diagnostics, full analysis finds %d", len(diags.Diagnostics), len(want))
	}

	// A comment-only change must reuse both functions.
	at2 := strings.Index(newText, "void second")
	ovf0, int0 = overflow.Solves(), intflow.Solves()
	h.notify("textDocument/didChange", didChangeParams{
		TextDocument: versionedTextDocumentIdentifier{URI: sampleURI, Version: 3},
		ContentChanges: []contentChange{{
			Range: &lspRange{Start: lspPos(newText, at2), End: lspPos(newText, at2)},
			Text:  "/* note */\n",
		}},
	})
	h.waitDiagnostics(3)
	if o, i := overflow.Solves()-ovf0, intflow.Solves()-int0; o != 0 || i != 0 {
		t.Fatalf("comment edit ran %d overflow and %d intflow solves, want none", o, i)
	}
}

func TestParseBreakingChangeKeepsDiagnosticsAndResyncs(t *testing.T) {
	h := newHarness(t, "")
	before := h.open(sample)

	// Break the parse; the server must keep serving the last good set.
	h.notify("textDocument/didChange", didChangeParams{
		TextDocument: versionedTextDocumentIdentifier{URI: sampleURI, Version: 2},
		ContentChanges: []contentChange{{
			Range: &lspRange{Start: lspPos(sample, 0), End: lspPos(sample, 0)},
			Text:  ")))",
		}},
	})
	broken := h.waitDiagnostics(2)
	if len(broken.Diagnostics) != len(before.Diagnostics) {
		t.Fatalf("broken state dropped diagnostics: %d -> %d", len(before.Diagnostics), len(broken.Diagnostics))
	}

	// Undo; the session is behind the editor, so the change falls back
	// to a whole-file resync, which Minimize keeps incremental.
	brokenText := ")))" + sample
	h.notify("textDocument/didChange", didChangeParams{
		TextDocument: versionedTextDocumentIdentifier{URI: sampleURI, Version: 3},
		ContentChanges: []contentChange{{
			Range: &lspRange{Start: lspPos(brokenText, 0), End: lspPos(brokenText, 3)},
			Text:  "",
		}},
	})
	fixed := h.waitDiagnostics(3)
	if len(fixed.Diagnostics) != len(before.Diagnostics) {
		t.Fatalf("resync lost diagnostics: %d -> %d", len(before.Diagnostics), len(fixed.Diagnostics))
	}
	if got := h.srv.docs[sampleURI].session.Text(); got != sample {
		t.Fatalf("session did not resync to editor text")
	}
}

func TestCodeActionAppliesBackendFix(t *testing.T) {
	h := newHarness(t, "bsd")
	h.open(sample)

	// Ask for actions over the whole document.
	h.request(2, "textDocument/codeAction", codeActionParams{
		TextDocument: textDocumentIdentifier{URI: sampleURI},
		Range:        lspRangeOf(sample, 0, len(sample)),
	})
	var actions []codeAction
	if err := json.Unmarshal(h.response(2), &actions); err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 {
		t.Fatal("no code actions over a file with eligible sites")
	}

	var slrAction *codeAction
	for i := range actions {
		if strings.Contains(actions[i].Title, "strlcpy") {
			slrAction = &actions[i]
			break
		}
	}
	if slrAction == nil {
		t.Fatalf("no strlcpy action under -backend bsd: %+v", actions)
	}

	// Applying the workspace edit client-side must reproduce the exact
	// single-site core.Fix output.
	edits := slrAction.Edit.Changes[sampleURI]
	if len(edits) == 0 {
		t.Fatal("empty workspace edit")
	}
	applied := applyTextEdits(sample, edits)
	if !strings.Contains(applied, "strlcpy") {
		t.Fatalf("applied action does not call strlcpy:\n%s", applied)
	}
	var slrOffset int = -1
	for _, site := range h.srv.docs[sampleURI].session.Sites() {
		if site.Kind == incremental.SiteSLR && site.Eligible {
			slrOffset = int(site.Extent.Pos)
			break
		}
	}
	if slrOffset < 0 {
		t.Fatal("no eligible SLR site")
	}
	rep, err := core.Fix(context.Background(), "t/sample.c", sample, core.Options{
		SelectOffset: slrOffset, Backend: "bsd",
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != rep.Source {
		t.Fatalf("workspace edit diverges from core.Fix:\n--- action\n%s\n--- fix\n%s", applied, rep.Source)
	}
}

// applyTextEdits splices LSP text edits into text. Edits from
// workspaceEditFor are non-overlapping and ordered; apply back to
// front so earlier offsets stay valid.
func applyTextEdits(text string, edits []textEdit) string {
	for i := len(edits) - 1; i >= 0; i-- {
		e := edits[i]
		start := byteOffset(text, e.Range.Start)
		end := byteOffset(text, e.Range.End)
		text = text[:start] + e.NewText + text[end:]
	}
	return text
}

func TestDidCloseClearsDiagnostics(t *testing.T) {
	h := newHarness(t, "")
	h.open(sample)
	h.notify("textDocument/didClose", didCloseParams{
		TextDocument: textDocumentIdentifier{URI: sampleURI},
	})
	cleared := h.waitDiagnostics(-1)
	if len(cleared.Diagnostics) != 0 {
		t.Fatalf("didClose published %d diagnostics, want 0", len(cleared.Diagnostics))
	}
	if _, open := h.srv.docs[sampleURI]; open {
		t.Fatal("document still tracked after close")
	}
}

// TestWarmEditLatency gates warm incremental re-analysis end to end:
// over a unit of 24 overflowing functions, 200 one-function edits, each
// timed from didChange to its publishDiagnostics through the JSON-RPC
// loop, keep a median (nearest rank) of at most 10 ms, and each edit
// re-solves its one function in each oracle. The race detector slows
// the loop several times over, so under -race only the bound is skipped.
func TestWarmEditLatency(t *testing.T) {
	const funcs, edits, maxP50Ms = 24, 200, 10.0
	h := newHarness(t, "")
	var sb strings.Builder
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&sb, "void fn%d(void) {\n    char buf%d[8];\n    strcpy(buf%d, \"0123456789\");\n}\n\n", i, i, i)
	}
	text := sb.String()
	if d := h.open(text); len(d.Diagnostics) == 0 {
		t.Fatal("cold open published no diagnostics")
	}

	// Toggle one function's buffer size per edit, rotating over the
	// functions, so each edit dirties exactly one function.
	ovf0, int0 := overflow.Solves(), intflow.Solves()
	warm := make([]float64, 0, edits)
	for i := 0; i < edits; i++ {
		marker := fmt.Sprintf("buf%d[", i%funcs)
		at := strings.Index(text, marker) + len(marker)
		repl := "9"
		if text[at] == '9' {
			repl = "8"
		}
		change := contentChange{
			Range: &lspRange{Start: lspPos(text, at), End: lspPos(text, at+1)},
			Text:  repl,
		}
		text = text[:at] + repl + text[at+1:]

		t0 := time.Now()
		h.notify("textDocument/didChange", didChangeParams{
			TextDocument:   versionedTextDocumentIdentifier{URI: sampleURI, Version: i + 2},
			ContentChanges: []contentChange{change},
		})
		h.waitDiagnostics(i + 2)
		warm = append(warm, float64(time.Since(t0).Microseconds())/1000)
	}
	if o, i := overflow.Solves()-ovf0, intflow.Solves()-int0; o != edits || i != edits {
		t.Fatalf("%d one-function edits ran %d overflow and %d intflow solves, want %d of each", edits, o, i, edits)
	}

	sort.Float64s(warm)
	p50 := percentile(warm, 50)
	t.Logf("warm p50 %.2f ms, p99 %.2f ms, max %.2f ms over %d edits / %d funcs",
		p50, percentile(warm, 99), warm[len(warm)-1], edits, funcs)
	if raceEnabled() {
		return
	}
	if p50 > maxP50Ms {
		t.Fatalf("warm p50 %.2f ms, want <= %.0f ms", p50, maxP50Ms)
	}
}

// percentile reads the p-th percentile from sorted samples
// (nearest rank).
func percentile(sorted []float64, p int) float64 {
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
