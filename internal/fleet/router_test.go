package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/cfix"
)

// stubBackend simulates one cfixd: it answers /readyz (drainable via
// the flag), counts /v1/fix hits, and responds with a payload naming
// itself so tests can see where a request landed. Behavior is scripted
// per request number via fail and delay callbacks.
type stubBackend struct {
	id string
	ts *httptest.Server

	draining atomic.Bool
	hits     atomic.Int64
	// failStatus, when non-zero for a request number, short-circuits
	// that request with the status. delay sleeps before answering.
	mu         sync.Mutex
	failStatus map[int64]int
	delay      map[int64]time.Duration
}

func newStubBackend(t *testing.T, id string) *stubBackend {
	t.Helper()
	b := &stubBackend{id: id, failStatus: map[int64]int{}, delay: map[int64]time.Duration{}}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		case "/readyz":
			if b.draining.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"status":"draining"}`)
				return
			}
			fmt.Fprint(w, `{"status":"ready"}`)
			return
		}
		n := b.hits.Add(1)
		b.mu.Lock()
		status := b.failStatus[n]
		d := b.delay[n]
		b.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
		if status != 0 {
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"stub %s scripted failure"}`, b.id)
			return
		}
		var req cfix.FixRequest
		body, _ := io.ReadAll(r.Body)
		_ = json.Unmarshal(body, &req)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"filename":%q,"source":"served-by-%s","changed":true,"slr_applied":0,"slr_candidates":0,"str_applied":0,"str_candidates":0,"cached":false}`,
			req.Filename, b.id)
	}))
	t.Cleanup(b.ts.Close)
	return b
}

// failNext scripts the next n serving requests to answer status.
func (b *stubBackend) failRange(from, to int64, status int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for n := from; n <= to; n++ {
		b.failStatus[n] = status
	}
}

func (b *stubBackend) delayRange(from, to int64, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for n := from; n <= to; n++ {
		b.delay[n] = d
	}
}

// fastConfig is a test router config with a tight probe cadence.
func fastConfig(backends ...*stubBackend) Config {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.ts.URL
	}
	return Config{
		Backends:        urls,
		Retries:         2,
		ProbeInterval:   20 * time.Millisecond,
		UpstreamTimeout: 10 * time.Second,
	}
}

func startRouter(t *testing.T, conf Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(conf)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts
}

func fixBody(filename, source string) []byte {
	b, _ := json.Marshal(cfix.FixRequest{Filename: filename, Source: source})
	return b
}

func postFix(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/fix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/fix: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, string(b)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRouterAffinity: identical requests land on the same backend;
// different keys spread over the fleet.
func TestRouterAffinity(t *testing.T) {
	b1, b2, b3 := newStubBackend(t, "b1"), newStubBackend(t, "b2"), newStubBackend(t, "b3")
	_, ts := startRouter(t, fastConfig(b1, b2, b3))

	body := fixBody("affine.c", "void f(void) {}")
	var first string
	for i := 0; i < 5; i++ {
		status, resp := postFix(t, ts.URL, body)
		if status != 200 {
			t.Fatalf("request %d: status %d: %s", i, status, resp)
		}
		if first == "" {
			first = resp
		} else if resp != first {
			t.Fatalf("identical request moved backends: %q vs %q", first, resp)
		}
	}
	total := b1.hits.Load() + b2.hits.Load() + b3.hits.Load()
	if total != 5 {
		t.Fatalf("want 5 upstream hits on one backend, got %d", total)
	}

	// Many distinct keys should touch more than one backend.
	for i := 0; i < 30; i++ {
		postFix(t, ts.URL, fixBody(fmt.Sprintf("spread%d.c", i), "void f(void) {}"))
	}
	busy := 0
	for _, b := range []*stubBackend{b1, b2, b3} {
		if b.hits.Load() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("30 distinct keys landed on %d backend(s); consistent hashing should spread them", busy)
	}
}

// TestRouterRetriesUpstreamFailure: a 500 from the owner is retried on
// the next replica and the client never sees it.
func TestRouterRetriesUpstreamFailure(t *testing.T) {
	b1, b2 := newStubBackend(t, "b1"), newStubBackend(t, "b2")
	rt, ts := startRouter(t, fastConfig(b1, b2))

	// Whichever backend owns the key, fail its first serving request.
	b1.failRange(1, 1, 500)
	b2.failRange(1, 1, 500)
	status, resp := postFix(t, ts.URL, fixBody("retry.c", "void f(void) {}"))
	if status != 200 {
		t.Fatalf("retry should have healed the 500: status %d: %s", status, resp)
	}
	m := rt.Metrics()
	if m.RetriedTotal == 0 {
		t.Errorf("want retried_total > 0, got %+v", m)
	}
	if m.UpstreamFailures == 0 {
		t.Errorf("want upstream_failures > 0")
	}
}

// TestRouterRetryExhaustionPropagates: when every replica keeps
// failing, the client sees the upstream failure after the bounded
// attempts, not a hang.
func TestRouterRetryExhaustionPropagates(t *testing.T) {
	b1, b2 := newStubBackend(t, "b1"), newStubBackend(t, "b2")
	_, ts := startRouter(t, fastConfig(b1, b2))
	b1.failRange(1, 100, 500)
	b2.failRange(1, 100, 500)
	status, _ := postFix(t, ts.URL, fixBody("doomed.c", "void f(void) {}"))
	if status != 500 {
		t.Fatalf("exhausted retries should surface the upstream status, got %d", status)
	}
	if hits := b1.hits.Load() + b2.hits.Load(); hits != 3 {
		t.Fatalf("retries must be bounded: want 3 attempts (1+2 retries), got %d", hits)
	}
}

// TestRouterHedgesSlowPrimary: a slow owner is hedged to the next
// replica; the client gets the fast answer well before the slow one.
func TestRouterHedgesSlowPrimary(t *testing.T) {
	b1, b2 := newStubBackend(t, "b1"), newStubBackend(t, "b2")
	conf := fastConfig(b1, b2)
	conf.HedgeAfter = 50 * time.Millisecond
	rt, ts := startRouter(t, conf)

	// Slow down only the owner's first serving request so the hedge
	// lands on the other (fast) replica.
	src := "void f(void) {}"
	owner := rt.ring.Owner(cfix.RequestKey("fix", "slow.c", src, cfix.RequestOptions{}))
	for _, b := range []*stubBackend{b1, b2} {
		if b.ts.URL == owner {
			b.delayRange(1, 1, 2*time.Second)
		}
	}
	start := time.Now()
	status, _ := postFix(t, ts.URL, fixBody("slow.c", src))
	elapsed := time.Since(start)
	if status != 200 {
		t.Fatalf("hedged request failed: %d", status)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("hedge did not cut the tail: took %s", elapsed)
	}
	if m := rt.Metrics(); m.HedgedTotal == 0 {
		t.Errorf("want hedged_total > 0, got %+v", m)
	}
}

// TestRouterEjectsDeadBackendAndReinstates: a backend that stops
// answering probes is ejected (requests route around it with zero
// client-visible failures) and reinstated when it comes back.
func TestRouterEjectsDeadBackendAndReinstates(t *testing.T) {
	b1, b2 := newStubBackend(t, "b1"), newStubBackend(t, "b2")
	rt, ts := startRouter(t, fastConfig(b1, b2))

	b1.draining.Store(true) // readiness fails; the prober must eject
	waitUntil(t, "ejection", func() bool {
		m := rt.Metrics()
		return !m.Backends[b1.ts.URL].Healthy
	})
	if m := rt.Metrics(); m.Backends[b1.ts.URL].EjectedTotal != 1 {
		t.Fatalf("want ejected_total 1, got %+v", m.Backends[b1.ts.URL])
	}

	// Every request now lands on b2, no failures.
	for i := 0; i < 10; i++ {
		status, resp := postFix(t, ts.URL, fixBody(fmt.Sprintf("e%d.c", i), "void f(void) {}"))
		if status != 200 || !bytes.Contains([]byte(resp), []byte("served-by-b2")) {
			t.Fatalf("request %d should be served by b2: %d %s", i, status, resp)
		}
	}
	if b1.hits.Load() != 0 {
		t.Fatalf("ejected backend must receive no serving requests, got %d", b1.hits.Load())
	}

	b1.draining.Store(false) // back to ready; the prober must reinstate
	waitUntil(t, "reinstatement", func() bool {
		return rt.Metrics().Backends[b1.ts.URL].Healthy
	})
}

// TestRouterSingleflightCollapsesHerd: concurrent identical requests
// reach the backend once; everyone gets the same bytes.
func TestRouterSingleflightCollapsesHerd(t *testing.T) {
	b1, b2 := newStubBackend(t, "b1"), newStubBackend(t, "b2")
	conf := fastConfig(b1, b2)
	conf.MaxInFlight = 64 // admit the whole herd; collapse happens past the gate
	_, ts := startRouter(t, conf)

	// Slow down the first serving request so the herd piles onto the
	// in-flight computation.
	b1.delayRange(1, 1, 300*time.Millisecond)
	b2.delayRange(1, 1, 300*time.Millisecond)

	const herd = 16
	body := fixBody("hot.c", "void f(void) {}")
	var wg sync.WaitGroup
	statuses := make([]int, herd)
	responses := make([]string, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/fix", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("herd request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			statuses[i], responses[i] = resp.StatusCode, string(b)
		}(i)
	}
	wg.Wait()
	for i := range statuses {
		if statuses[i] != 200 {
			t.Fatalf("herd request %d failed: %d", i, statuses[i])
		}
		if responses[i] != responses[0] {
			t.Fatalf("herd answers diverged: %q vs %q", responses[i], responses[0])
		}
	}
	if hits := b1.hits.Load() + b2.hits.Load(); hits != 1 {
		t.Fatalf("fleet singleflight: want exactly 1 upstream computation, got %d", hits)
	}
}

// TestRouterBatchFanout: batch members route individually and
// reassemble in order; an unparseable member fails alone.
func TestRouterBatchFanout(t *testing.T) {
	b1, b2, b3 := newStubBackend(t, "b1"), newStubBackend(t, "b2"), newStubBackend(t, "b3")
	_, ts := startRouter(t, fastConfig(b1, b2, b3))

	var req cfix.BatchRequest
	for i := 0; i < 12; i++ {
		req.Files = append(req.Files, cfix.BatchFile{
			Filename: fmt.Sprintf("f%02d.c", i), Source: fmt.Sprintf("void f%d(void) {}", i)})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	var br cfix.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	if len(br.Results) != 12 {
		t.Fatalf("want 12 results, got %d", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Filename != fmt.Sprintf("f%02d.c", i) {
			t.Fatalf("result %d out of order: %q", i, r.Filename)
		}
		if r.Error != "" || r.Fix == nil {
			t.Fatalf("result %d: unexpected failure %q", i, r.Error)
		}
	}
	// The fan-out should touch multiple shards.
	busy := 0
	for _, b := range []*stubBackend{b1, b2, b3} {
		if b.hits.Load() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("batch fan-out landed on %d backend(s)", busy)
	}
}

// TestRouterValidationAndAdmission: bad bodies 400, oversized 413,
// admission overflow 429 with Retry-After.
func TestRouterValidationAndAdmission(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	conf := fastConfig(b1)
	conf.MaxInFlight = 1
	conf.MaxRequestBytes = 1024
	rt, ts := startRouter(t, conf)

	if status, _ := postFix(t, ts.URL, []byte(`{not json`)); status != 400 {
		t.Errorf("bad JSON: want 400, got %d", status)
	}
	if status, _ := postFix(t, ts.URL, []byte(`{"source":""}`)); status != 400 {
		t.Errorf("missing source: want 400, got %d", status)
	}
	big := fixBody("big.c", string(bytes.Repeat([]byte("x"), 2048)))
	if status, _ := postFix(t, ts.URL, big); status != 413 {
		t.Errorf("oversized body: want 413, got %d", status)
	}

	// Fill the single admission slot with a slow request, then overflow.
	// The 400/413 probes above never reached the backend, so this is
	// b1's first serving request.
	b1.delayRange(1, 1, 500*time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		postFix(t, ts.URL, fixBody("slot.c", "void f(void) {}"))
	}()
	waitUntil(t, "slot occupied", func() bool { return rt.gate.InFlight() == 1 })
	resp, err := http.Post(ts.URL+"/v1/fix", "application/json", bytes.NewReader(fixBody("over.c", "void g(void) {}")))
	if err != nil {
		t.Fatalf("overflow request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow: want 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 must carry Retry-After")
	}
	<-done
}

// TestRouterReadyzDrain: /readyz flips to 503 on BeginDrain while
// /healthz stays 200 — the ejection signal for an upstream balancer.
func TestRouterReadyzDrain(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	rt, ts := startRouter(t, fastConfig(b1))
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("ready router: want 200, got %v %v", resp, err)
	}
	resp.Body.Close()
	rt.BeginDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining router: want 503, got %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("draining router is still alive: want 200, got %v %v", resp, err)
	}
	resp.Body.Close()
	if !rt.Metrics().Draining {
		t.Error("metrics should report draining")
	}
}

// TestRouterRoutesAroundFailingBackend: a backend that passes readiness
// but answers 500 to every request costs no client failures; each
// request it owns spends one attempt there and the retry lands on the
// healthy replica.
func TestRouterRoutesAroundFailingBackend(t *testing.T) {
	bad, good := newStubBackend(t, "bad"), newStubBackend(t, "good")
	_, ts := startRouter(t, fastConfig(bad, good))
	bad.failRange(1, 1000, 500)

	for i := 0; i < 20; i++ {
		before := bad.hits.Load()
		status, resp := postFix(t, ts.URL, fixBody(fmt.Sprintf("around%d.c", i), "void f(void) {}"))
		if status != 200 || !bytes.Contains([]byte(resp), []byte("served-by-good")) {
			t.Fatalf("request %d: want 200 from the healthy replica, got %d %s", i, status, resp)
		}
		if n := bad.hits.Load() - before; n > 1 {
			t.Fatalf("request %d: failing backend got %d attempts, want at most 1", i, n)
		}
	}
}

// TestRouterAllEjectedAnswers503: once probes have ejected every
// backend, a request answers 503 without reaching any of them and is
// counted as unroutable.
func TestRouterAllEjectedAnswers503(t *testing.T) {
	b1, b2 := newStubBackend(t, "b1"), newStubBackend(t, "b2")
	rt, ts := startRouter(t, fastConfig(b1, b2))
	b1.draining.Store(true)
	b2.draining.Store(true)
	waitUntil(t, "every backend ejected", func() bool {
		for _, bs := range rt.Metrics().Backends {
			if bs.Healthy {
				return false
			}
		}
		return true
	})

	status, resp := postFix(t, ts.URL, fixBody("nowhere.c", "void f(void) {}"))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("all backends ejected: want 503, got %d %s", status, resp)
	}
	if hits := b1.hits.Load() + b2.hits.Load(); hits != 0 {
		t.Fatalf("ejected backends must not be reached, got %d hits", hits)
	}
	if m := rt.Metrics(); m.Unroutable != 1 {
		t.Fatalf("want unroutable 1, got %d", m.Unroutable)
	}
}

// TestRouterBatchMatchesDaemon: a /v1/batch body gets the same answer
// from a daemon and from a router in front of that daemon — the same
// status, the same per-file errors and the same fixed sources.
func TestRouterBatchMatchesDaemon(t *testing.T) {
	daemon := startCfixd(t)
	conf := fastConfig()
	conf.Backends = []string{daemon}
	rt, router := startRouter(t, conf)

	const vuln = `void f(void) { char b[8]; strcpy(b, "far too long for eight"); }`
	bodies := map[string]string{
		"unknown backend":     `{"files":[{"filename":"a.c","source":"void f(void) {}"}],"options":{"backend":"nope"}}`,
		"unknown field":       `{"files":[{"filename":"a.c","source":"void f(void) {}"}],"bogus":1}`,
		"empty member source": `{"files":[{"filename":"a.c","source":"void f(void) {}"},{"filename":"empty.c","source":""}]}`,
		"valid":               fmt.Sprintf(`{"files":[{"filename":"v.c","source":%q},{"source":"int g;"}]}`, vuln),
	}
	type answer struct {
		status  int
		errors  []string
		sources []string
	}
	post := func(base, body string) answer {
		t.Helper()
		resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST /v1/batch: %v", err)
		}
		defer resp.Body.Close()
		a := answer{status: resp.StatusCode}
		if resp.StatusCode != http.StatusOK {
			return a
		}
		var br cfix.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
		for _, r := range br.Results {
			a.errors = append(a.errors, r.Error)
			src := ""
			if r.Fix != nil {
				src = r.Fix.Source
			}
			a.sources = append(a.sources, src)
		}
		return a
	}
	for name, body := range bodies {
		direct, routed := post(daemon, body), post(router.URL, body)
		if fmt.Sprint(direct) != fmt.Sprint(routed) {
			t.Errorf("%s: daemon answered %+v, router %+v", name, direct, routed)
		}
	}
	if got := post(daemon, bodies["unknown backend"]).status; got != http.StatusBadRequest {
		t.Errorf("unknown backend: want 400, got %d", got)
	}
	if got := post(daemon, bodies["unknown field"]).status; got != http.StatusBadRequest {
		t.Errorf("unknown field: want 400, got %d", got)
	}
	if got := post(daemon, bodies["empty member source"]); got.status != 200 || got.errors[1] != "missing source" {
		t.Errorf("empty member: want 200 and per-file error %q, got %+v", "missing source", got)
	}
	routed := rt.Metrics().RoutedTotal
	post(router.URL, bodies["empty member source"])
	if n := rt.Metrics().RoutedTotal - routed; n != 1 {
		t.Errorf("empty member: want only the non-empty member routed upstream, got %d attempts", n)
	}
	if got := post(daemon, bodies["valid"]); got.status != 200 || !strings.Contains(got.sources[0], "g_strlcpy") {
		t.Errorf("valid batch: want the fixed source, got %+v", got)
	}
}

// TestRouterRejectsInvalidOptions: a lint body with an invalid check
// selection or an unknown backend gets the daemon's 400 from the router
// too, and the router answers it itself without routing it upstream.
func TestRouterRejectsInvalidOptions(t *testing.T) {
	daemon := startCfixd(t)
	conf := fastConfig()
	conf.Backends = []string{daemon}
	rt, router := startRouter(t, conf)

	for _, opts := range []cfix.RequestOptions{{Checks: "bogus"}, {Checks: ","}, {Backend: "nope"}} {
		body, err := json.Marshal(cfix.LintRequest{Filename: "a.c", Source: "void f(void) {}", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		routed := rt.Metrics().RoutedTotal
		for _, base := range []string{daemon, router.URL} {
			resp, err := http.Post(base+"/v1/lint", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST /v1/lint: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%+v via %s: want 400, got %d", opts, base, resp.StatusCode)
			}
		}
		if n := rt.Metrics().RoutedTotal - routed; n != 0 {
			t.Errorf("%+v: router sent %d attempts upstream, want 0", opts, n)
		}
	}
}
