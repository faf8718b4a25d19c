package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/pkg/cfix"
)

// stageCounts extracts the per-stage span counts from a snapshot.
func stageCounts(s Snapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Stages))
	for name, st := range s.Stages {
		out[name] = st.Count
	}
	return out
}

// checkMonotonic reports an error if any counter in before exceeds its
// value in after — the monotonicity contract /metrics promises
// scrapers. It is goroutine-safe (no testing.T) so drain-time checkers
// can use it off the test goroutine.
func checkMonotonic(before, after Snapshot) error {
	if after.Requests.Fix < before.Requests.Fix ||
		after.Requests.Lint < before.Requests.Lint ||
		after.Requests.Batch < before.Requests.Batch ||
		after.PanicsRecovered < before.PanicsRecovered ||
		after.ServerErrors < before.ServerErrors ||
		after.DegradedResponses < before.DegradedResponses {
		return fmt.Errorf("request counters went backwards:\nbefore %+v\nafter  %+v", before, after)
	}
	bc, ac := stageCounts(before), stageCounts(after)
	for name, n := range bc {
		if ac[name] < n {
			return fmt.Errorf("stage %q count went backwards: %d -> %d", name, n, ac[name])
		}
	}
	return nil
}

func assertMonotonic(t *testing.T, before, after Snapshot) {
	t.Helper()
	if err := checkMonotonic(before, after); err != nil {
		t.Fatal(err)
	}
}

// TestStageHistogramsInMetrics: served requests populate one latency
// histogram per pipeline stage in /metrics, scraped over HTTP, and the
// counts only ever grow.
func TestStageHistogramsInMetrics(t *testing.T) {
	if !cfix.TracingEnabled() {
		t.Skip("tracing compiled out (cfix_notrace)")
	}
	_, ts, _ := newTestServer(t, Config{})

	var m0 Snapshot
	if status := getJSON(t, ts.URL+"/metrics", &m0); status != http.StatusOK {
		t.Fatalf("metrics before traffic: %d", status)
	}
	if len(m0.Stages) != 0 {
		t.Fatalf("stage histograms before any traffic: %+v", m0.Stages)
	}

	var fr cfix.FixResponse
	if status, raw := postJSON(t, ts.URL+"/v1/fix",
		cfix.FixRequest{Filename: "s.c", Source: overflowing}, &fr); status != http.StatusOK {
		t.Fatalf("fix: %d %s", status, raw)
	}
	var m1 Snapshot
	if status := getJSON(t, ts.URL+"/metrics", &m1); status != http.StatusOK {
		t.Fatalf("metrics after fix: %d", status)
	}
	for _, stage := range []string{"parse", "typecheck", "fix", "slr", "str"} {
		st, ok := m1.Stages[stage]
		if !ok || st.Count < 1 {
			t.Fatalf("stage %q missing from /metrics after a fix request: %+v", stage, m1.Stages)
		}
		var bucketSum int64
		for _, n := range st.Buckets {
			bucketSum += n
		}
		if bucketSum != st.Count {
			t.Fatalf("stage %q bucket sum %d != count %d", stage, bucketSum, st.Count)
		}
	}
	assertMonotonic(t, m0, m1)

	// A second request only grows the counters.
	if status, raw := postJSON(t, ts.URL+"/v1/fix",
		cfix.FixRequest{Filename: "s.c", Source: overflowing}, &fr); status != http.StatusOK {
		t.Fatalf("second fix: %d %s", status, raw)
	}
	var m2 Snapshot
	getJSON(t, ts.URL+"/metrics", &m2)
	assertMonotonic(t, m1, m2)
	if m2.Stages["parse"].Count <= m1.Stages["parse"].Count {
		t.Fatalf("parse stage count did not grow: %d -> %d",
			m1.Stages["parse"].Count, m2.Stages["parse"].Count)
	}
}

// TestStageMetricsDegradedCount: a budget-exhausted request marks its
// stage histogram entries as degraded.
func TestStageMetricsDegradedCount(t *testing.T) {
	if !cfix.TracingEnabled() {
		t.Skip("tracing compiled out (cfix_notrace)")
	}
	defer analysis.InjectFault("deg.c", analysis.Fault{Budget: 1})()
	s, ts, _ := newTestServer(t, Config{})

	var resp cfix.LintResponse
	if status, raw := postJSON(t, ts.URL+"/v1/lint",
		cfix.LintRequest{Filename: "deg.c", Source: overflowing}, &resp); status != http.StatusOK {
		t.Fatalf("degraded lint: %d %s", status, raw)
	}
	m := s.Metrics()
	var degraded int64
	for _, st := range m.Stages {
		degraded += st.Degraded
	}
	if degraded == 0 {
		t.Fatalf("no stage recorded as degraded after budget exhaustion: %+v", m.Stages)
	}
}

// TestMetricsDuringDrain: the metrics snapshot — the exact code path
// GET /metrics serves — stays monotonic and race-clean while the server
// drains an in-flight request after SIGTERM-style Shutdown. Direct
// snapshots run concurrently with the draining request's stage
// recording (the race detector covers the synchronization claim);
// opportunistic HTTP scrapes ride along but may be refused once
// Shutdown closes idle connections, which is not a failure.
func TestMetricsDuringDrain(t *testing.T) {
	defer analysis.InjectFault("drain.c", analysis.Fault{Delay: 300 * time.Millisecond})()
	s, ts, _ := newTestServer(t, Config{})

	scrape := func() (Snapshot, error) {
		var snap Snapshot
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			return snap, err
		}
		defer resp.Body.Close()
		return snap, json.NewDecoder(resp.Body).Decode(&snap)
	}
	pre, err := scrape()
	if err != nil {
		t.Fatalf("pre-drain scrape: %v", err)
	}

	fixDone := make(chan error, 1)
	go func() {
		b, _ := json.Marshal(cfix.FixRequest{Filename: "drain.c", Source: overflowing})
		resp, err := http.Post(ts.URL+"/v1/fix", "application/json", bytes.NewReader(b))
		if err != nil {
			fixDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			fixDone <- fmt.Errorf("fix during drain: %d %s", resp.StatusCode, body)
			return
		}
		fixDone <- nil
	}()
	waitFor(t, "request in flight", func() bool { return s.Metrics().InFlight == 1 })

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutDone := make(chan error, 1)
	go func() { shutDone <- ts.Config.Shutdown(shutCtx) }()

	last := pre
	var monoErr error
	var httpScrapes int
drainLoop:
	for {
		select {
		case err := <-shutDone:
			if err != nil {
				t.Fatalf("drain failed: %v", err)
			}
			break drainLoop
		default:
		}
		cur := s.Metrics()
		if err := checkMonotonic(last, cur); err != nil && monoErr == nil {
			monoErr = err
		}
		last = cur
		if snap, err := scrape(); err == nil {
			httpScrapes++
			if err := checkMonotonic(last, snap); err != nil && monoErr == nil {
				monoErr = err
			}
			last = snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	if monoErr != nil {
		t.Fatalf("metrics during drain: %v", monoErr)
	}
	if err := <-fixDone; err != nil {
		t.Fatalf("in-flight request died during drain: %v", err)
	}
	final := s.Metrics()
	assertMonotonic(t, last, final)
	if final.Requests.Fix < 1 {
		t.Fatalf("drained request never counted: %+v", final)
	}
	_ = httpScrapes // success count is environment-dependent; monotonicity is the contract
}

// TestMetricsDuringPanic500: a request whose pipeline panics still
// contributes its stage spans (closed on the unwind path) to /metrics,
// and scraping around the panic stays monotonic.
func TestMetricsDuringPanic500(t *testing.T) {
	defer analysis.InjectFault("boom.c", analysis.Fault{Panic: true})()
	s, ts, _ := newTestServer(t, Config{})

	pre := s.Metrics()
	status, raw := postJSON(t, ts.URL+"/v1/fix",
		cfix.FixRequest{Filename: "boom.c", Source: clean}, nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking request: %d %s, want 500", status, raw)
	}
	var post Snapshot
	if status := getJSON(t, ts.URL+"/metrics", &post); status != http.StatusOK {
		t.Fatalf("metrics after panic: %d", status)
	}
	assertMonotonic(t, pre, post)
	if post.PanicsRecovered != 1 {
		t.Fatalf("panics_recovered = %d, want 1", post.PanicsRecovered)
	}
	if cfix.TracingEnabled() {
		// The fault fires inside parse, after its span opened: the defer
		// must have closed it so the histogram still sees the stage.
		if post.Stages["parse"].Count < 1 {
			t.Fatalf("parse span lost on the panic path: %+v", post.Stages)
		}
	}
	var reqTotal int64
	for _, n := range post.LatencyBuckets {
		reqTotal += n
	}
	if reqTotal < 1 {
		t.Fatalf("panicked request missing from latency histogram: %+v", post.LatencyBuckets)
	}
}

// TestSlowRequestLog: requests above SlowThreshold produce a log line
// with the per-stage breakdown; requests below it stay quiet.
func TestSlowRequestLog(t *testing.T) {
	defer analysis.InjectFault("slow.c", analysis.Fault{Delay: 60 * time.Millisecond})()
	_, ts, logbuf := newTestServer(t, Config{SlowThreshold: 25 * time.Millisecond})

	if status, raw := postJSON(t, ts.URL+"/v1/fix",
		cfix.FixRequest{Filename: "slow.c", Source: overflowing}, nil); status != http.StatusOK {
		t.Fatalf("slow fix: %d %s", status, raw)
	}
	logged := logbuf.String()
	if !strings.Contains(logged, "slow request /v1/fix slow.c") {
		t.Fatalf("missing slow-request log: %q", logged)
	}
	if cfix.TracingEnabled() && !strings.Contains(logged, "parse") {
		t.Fatalf("slow-request log missing stage breakdown: %q", logged)
	}

	// A session edit is an analysis request like any other.
	defer analysis.InjectFault("slowsess.c", analysis.Fault{Delay: 60 * time.Millisecond})()
	var open cfix.SessionResponse
	if status, raw := postJSON(t, ts.URL+"/v1/session/open",
		cfix.SessionOpenRequest{Filename: "slowsess.c", Source: overflowing}, &open); status != http.StatusOK {
		t.Fatalf("slow session open: %d %s", status, raw)
	}
	if status, raw := postJSON(t, ts.URL+"/v1/session/edit", cfix.SessionEditRequest{
		SessionID: open.SessionID,
		Deltas:    []cfix.SessionDelta{{Pos: 0, End: 0, Text: "/* e */\n"}},
	}, nil); status != http.StatusOK {
		t.Fatalf("slow session edit: %d %s", status, raw)
	}
	if logged := logbuf.String(); !strings.Contains(logged, "slow request /v1/session/edit slowsess.c") {
		t.Fatalf("missing slow-request log for the session edit: %q", logged)
	}
}
