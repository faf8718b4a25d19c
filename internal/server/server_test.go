package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cparse"
	"repro/pkg/cfix"
)

// overflowing provably overflows, so fix rewrites it and lint flags it.
const overflowing = `
void f(void) {
    char buf[8];
    strcpy(buf, "this literal exceeds eight bytes");
}
`

// clean has no overflow and no transformation candidates beyond STR.
const clean = `
int add(int a, int b) {
    return a + b;
}
`

// syncBuffer is a log sink safe to read while the server writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newTestServer starts the API over httptest with a captured log.
func newTestServer(t *testing.T, conf Config) (*Server, *httptest.Server, *syncBuffer) {
	t.Helper()
	logbuf := &syncBuffer{}
	conf.Log = log.New(logbuf, "", 0)
	s := New(conf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, logbuf
}

func newCache(t *testing.T) *cfix.ResultCache {
	t.Helper()
	rc, err := cfix.NewResultCache(32<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// postJSON posts one request and decodes the response into out.
func postJSON(t *testing.T, url string, body any, out any) (status int, raw string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode, string(data)
}

// getJSON fetches one endpoint and decodes it.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFixEquivalenceAndCacheHit is the PR's acceptance test: concurrent
// /v1/fix requests return byte-identical output to a one-shot cfix run
// on the same input/options, and a repeated identical request is a
// cache hit — verified both through /metrics counters and a parse-count
// assertion (a hit performs zero parses).
func TestFixEquivalenceAndCacheHit(t *testing.T) {
	// Admit every concurrent request: the default MaxInFlight (twice the
	// CPU count) is below the goroutine count on small hosts, and its
	// 429s belong to TestAdmissionControl429, not to this test.
	const goroutines = 8
	_, ts, _ := newTestServer(t, Config{Cache: newCache(t), MaxInFlight: goroutines})

	oneShot, err := cfix.Fix("equiv.c", overflowing, cfix.Options{SelectAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !oneShot.Changed() {
		t.Fatal("fixture must be transformable")
	}

	req := cfix.FixRequest{Filename: "equiv.c", Source: overflowing}
	var wg sync.WaitGroup
	responses := make([]cfix.FixResponse, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/fix", "application/json", bytes.NewReader(b))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if responses[i].Source != oneShot.Source {
			t.Fatalf("request %d: served source differs from one-shot cfix output", i)
		}
		if responses[i].Summary != oneShot.Summary() {
			t.Fatalf("request %d: served summary differs from one-shot cfix", i)
		}
	}

	// A repeated identical request must be answered from the cache:
	// zero parses, cached flag set, /metrics hit counter bumped.
	before := cparse.Parses()
	var warm cfix.FixResponse
	if status, raw := postJSON(t, ts.URL+"/v1/fix", req, &warm); status != http.StatusOK {
		t.Fatalf("warm request: %d %s", status, raw)
	}
	if got := cparse.Parses() - before; got != 0 {
		t.Fatalf("cache hit parsed %d times, want 0", got)
	}
	if !warm.Cached {
		t.Fatal("warm response not marked cached")
	}
	if warm.Source != oneShot.Source {
		t.Fatal("cached source differs from one-shot cfix output")
	}
	var m Snapshot
	if status := getJSON(t, ts.URL+"/metrics", &m); status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	if m.Cache == nil || m.Cache.Hits < 1 {
		t.Fatalf("metrics do not show the cache hit: %+v", m.Cache)
	}
	if m.Cache.Misses < 1 {
		t.Fatalf("metrics lost the cold miss: %+v", m.Cache)
	}
	if m.Requests.Fix != goroutines+1 {
		t.Fatalf("fix request counter = %d, want %d", m.Requests.Fix, goroutines+1)
	}
}

func TestLintRoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var resp cfix.LintResponse
	status, raw := postJSON(t, ts.URL+"/v1/lint",
		cfix.LintRequest{Filename: "vuln.c", Source: overflowing}, &resp)
	if status != http.StatusOK {
		t.Fatalf("lint: %d %s", status, raw)
	}
	if !resp.Definite || len(resp.Findings) == 0 {
		t.Fatalf("lint missed the definite overflow: %+v", resp)
	}
	f := resp.Findings[0]
	if f.File != "vuln.c" || f.CWE == 0 || f.CWEName == "" || f.Severity == "" {
		t.Fatalf("finding wire shape incomplete: %+v", f)
	}

	var cleanResp cfix.LintResponse
	if status, raw := postJSON(t, ts.URL+"/v1/lint",
		cfix.LintRequest{Filename: "ok.c", Source: clean}, &cleanResp); status != http.StatusOK {
		t.Fatalf("clean lint: %d %s", status, raw)
	}
	if cleanResp.Definite || len(cleanResp.Findings) != 0 {
		t.Fatalf("clean file flagged: %+v", cleanResp)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Cache: newCache(t)})
	req := cfix.BatchRequest{Files: []cfix.BatchFile{
		{Filename: "a.c", Source: overflowing},
		{Filename: "broken.c", Source: "int main( {"},
		{Filename: "c.c", Source: clean},
	}}
	var resp cfix.BatchResponse
	status, raw := postJSON(t, ts.URL+"/v1/batch", req, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, raw)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Fix == nil || !resp.Results[0].Fix.Changed {
		t.Fatalf("a.c not transformed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || resp.Results[1].Fix != nil {
		t.Fatalf("broken.c did not fail in isolation: %+v", resp.Results[1])
	}
	if resp.Results[2].Fix == nil {
		t.Fatalf("c.c failed: %+v", resp.Results[2])
	}

	// Lint flavor over the same files.
	req.Lint = true
	var lintResp cfix.BatchResponse
	if status, raw := postJSON(t, ts.URL+"/v1/batch", req, &lintResp); status != http.StatusOK {
		t.Fatalf("batch lint: %d %s", status, raw)
	}
	if lintResp.Results[0].Lint == nil || !lintResp.Results[0].Lint.Definite {
		t.Fatalf("batch lint missed the overflow: %+v", lintResp.Results[0])
	}
	if lintResp.Results[1].Error == "" {
		t.Fatal("batch lint hid the parse failure")
	}
}

func TestHealthzAndMethodDiscipline(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var health struct {
		Status string `json:"status"`
	}
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", status, health)
	}
	resp, err := http.Get(ts.URL + "/v1/fix")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/fix = %d, want 405", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"invalid json", "{not json", http.StatusBadRequest},
		{"missing source", `{"filename":"x.c"}`, http.StatusBadRequest},
		{"unknown field", `{"source":"int x;","bogus":1}`, http.StatusBadRequest},
		{"unparseable C", `{"source":"int main( {"}`, http.StatusUnprocessableEntity},
		// A raw Latin-1 byte: decoding would replace it with U+FFFD.
		{"invalid UTF-8", "{\"source\":\"char c = '\xe9';\"}", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/fix", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

func TestRequestSizeCap(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxRequestBytes: 256})
	big := cfix.FixRequest{Source: strings.Repeat("/* pad */", 200)}
	status, raw := postJSON(t, ts.URL+"/v1/fix", big, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", status, raw)
	}
}

// TestAdmissionControl429 saturates the single in-flight slot with a
// stalled request and checks that the next request is turned away with
// 429 + Retry-After instead of queueing behind it.
func TestAdmissionControl429(t *testing.T) {
	defer analysis.InjectFault("slow.c", analysis.Fault{Delay: 30 * time.Second})()
	s, ts, _ := newTestServer(t, Config{MaxInFlight: 1})

	slowCtx, cancelSlow := context.WithCancel(context.Background())
	defer cancelSlow()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		b, _ := json.Marshal(cfix.FixRequest{Filename: "slow.c", Source: clean})
		req, _ := http.NewRequestWithContext(slowCtx, "POST", ts.URL+"/v1/fix", bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "slot saturation", func() bool { return s.Metrics().InFlight == 1 })

	resp, err := http.Post(ts.URL+"/v1/fix", "application/json",
		strings.NewReader(`{"source":"int x;"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if got := s.Metrics().Rejected429; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// Healthz must answer even at saturation — it is never queued
	// behind analysis work.
	if status := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz under load: %d", status)
	}

	// Free the slot: the client abandons the stalled request, the
	// context-aware delay aborts, and capacity returns.
	cancelSlow()
	<-slowDone
	waitFor(t, "slot release", func() bool { return s.Metrics().InFlight == 0 })
	var ok cfix.FixResponse
	if status, raw := postJSON(t, ts.URL+"/v1/fix",
		cfix.FixRequest{Source: clean}, &ok); status != http.StatusOK {
		t.Fatalf("after release: %d %s", status, raw)
	}
}

// TestPanicContained injects a panic into the per-file pipeline and
// checks the containment contract: the request answers 500, the
// recovered stack lands in the log (not in the response), the counters
// see it, and the daemon keeps serving.
func TestPanicContained(t *testing.T) {
	defer analysis.InjectFault("boom.c", analysis.Fault{Panic: true})()
	s, ts, logbuf := newTestServer(t, Config{})

	status, raw := postJSON(t, ts.URL+"/v1/fix",
		cfix.FixRequest{Filename: "boom.c", Source: clean}, nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking request: %d %s, want 500", status, raw)
	}
	if strings.Contains(raw, "goroutine") || strings.Contains(raw, "injected fault") {
		t.Fatalf("response leaked the panic internals: %s", raw)
	}
	logged := logbuf.String()
	if !strings.Contains(logged, "panic recovered") || !strings.Contains(logged, "injected fault: boom.c") {
		t.Fatalf("log missing the recovered panic: %q", logged)
	}
	if !strings.Contains(logged, "goroutine") {
		t.Fatalf("log missing the recovered stack: %q", logged)
	}
	if got := s.Metrics().PanicsRecovered; got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}

	// Not a crashed daemon: it still serves.
	if status := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz after panic: %d", status)
	}
	var okResp cfix.FixResponse
	if status, raw := postJSON(t, ts.URL+"/v1/fix",
		cfix.FixRequest{Filename: "fine.c", Source: overflowing}, &okResp); status != http.StatusOK || !okResp.Changed {
		t.Fatalf("fix after panic: %d %s", status, raw)
	}
}

// TestBatchPanicIsolation: a panic in one batch file is contained to
// that file's result slot.
func TestBatchPanicIsolation(t *testing.T) {
	defer analysis.InjectFault("boom.c", analysis.Fault{Panic: true})()
	s, ts, logbuf := newTestServer(t, Config{})
	var resp cfix.BatchResponse
	status, raw := postJSON(t, ts.URL+"/v1/batch", cfix.BatchRequest{Files: []cfix.BatchFile{
		{Filename: "boom.c", Source: clean},
		{Filename: "ok.c", Source: overflowing},
	}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch with panicking file: %d %s", status, raw)
	}
	if !strings.Contains(resp.Results[0].Error, "panic contained") {
		t.Fatalf("boom.c result: %+v", resp.Results[0])
	}
	if resp.Results[1].Fix == nil || !resp.Results[1].Fix.Changed {
		t.Fatalf("ok.c caught boom.c's shrapnel: %+v", resp.Results[1])
	}
	if s.Metrics().PanicsRecovered != 1 {
		t.Fatalf("panics_recovered = %d, want 1", s.Metrics().PanicsRecovered)
	}
	if !strings.Contains(logbuf.String(), "panic contained in batch file boom.c") {
		t.Fatalf("log missing batch panic: %q", logbuf.String())
	}
}

// TestDeadlineExceeded504: a stalled request that outlives its
// requested deadline answers 504 instead of hanging.
func TestDeadlineExceeded504(t *testing.T) {
	defer analysis.InjectFault("stall.c", analysis.Fault{Delay: 30 * time.Second})()
	_, ts, _ := newTestServer(t, Config{})
	start := time.Now()
	status, raw := postJSON(t, ts.URL+"/v1/fix", cfix.FixRequest{
		Filename: "stall.c",
		Source:   clean,
		Options:  cfix.RequestOptions{TimeoutMs: 50},
	}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stalled request: %d %s, want 504", status, raw)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// TestTimeoutClamp: a request may not ask for more than the server's
// maximum deadline.
func TestTimeoutClamp(t *testing.T) {
	defer analysis.InjectFault("clamp.c", analysis.Fault{Delay: 30 * time.Second})()
	_, ts, _ := newTestServer(t, Config{MaxTimeout: 50 * time.Millisecond})
	start := time.Now()
	status, _ := postJSON(t, ts.URL+"/v1/fix", cfix.FixRequest{
		Filename: "clamp.c",
		Source:   clean,
		Options:  cfix.RequestOptions{TimeoutMs: 600_000},
	}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("clamped request: %d, want 504", status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("clamp did not bite: took %v", elapsed)
	}
}

// TestGracefulDrain: shutting the server down waits for the in-flight
// request, which completes successfully; new connections are refused.
func TestGracefulDrain(t *testing.T) {
	defer analysis.InjectFault("drain.c", analysis.Fault{Delay: 300 * time.Millisecond})()
	s, ts, _ := newTestServer(t, Config{})

	type result struct {
		status int
		resp   cfix.FixResponse
		err    error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		b, _ := json.Marshal(cfix.FixRequest{Filename: "drain.c", Source: overflowing})
		resp, err := http.Post(ts.URL+"/v1/fix", "application/json", bytes.NewReader(b))
		if err != nil {
			r.err = err
			done <- r
			return
		}
		defer resp.Body.Close()
		r.status = resp.StatusCode
		r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
		done <- r
	}()
	waitFor(t, "request in flight", func() bool { return s.Metrics().InFlight == 1 })

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(shutCtx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request died during drain: %v", r.err)
	}
	if r.status != http.StatusOK || !r.resp.Changed {
		t.Fatalf("in-flight request not completed during drain: %d %+v", r.status, r.resp)
	}
}

// TestMetricsShape exercises the remaining counters: latency buckets
// accumulate, degraded responses are counted, uptime advances.
func TestMetricsShape(t *testing.T) {
	defer analysis.InjectFault("deg.c", analysis.Fault{Budget: 1})()
	s, ts, _ := newTestServer(t, Config{Cache: newCache(t)})

	var resp cfix.LintResponse
	if status, raw := postJSON(t, ts.URL+"/v1/lint",
		cfix.LintRequest{Filename: "deg.c", Source: overflowing}, &resp); status != http.StatusOK {
		t.Fatalf("degraded lint: %d %s", status, raw)
	}
	if len(resp.Degraded) == 0 {
		t.Fatalf("budget exhaustion not surfaced in response: %+v", resp)
	}
	m := s.Metrics()
	if m.DegradedResponses != 1 {
		t.Fatalf("degraded_responses = %d, want 1", m.DegradedResponses)
	}
	var latencyTotal int64
	for _, n := range m.LatencyBuckets {
		latencyTotal += n
	}
	if latencyTotal != 1 {
		t.Fatalf("latency histogram count = %d, want 1 (%+v)", latencyTotal, m.LatencyBuckets)
	}
	if m.UptimeSeconds <= 0 {
		t.Fatal("uptime not advancing")
	}
	if m.Requests.Lint != 1 {
		t.Fatalf("lint counter = %d, want 1", m.Requests.Lint)
	}
}
