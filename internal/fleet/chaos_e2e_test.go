package fleet

// End-to-end chaos suite: three real cfixd backends behind the router,
// one of them reached through a chaos proxy that injects latency
// spikes, a window of 500s, and finally kills the backend mid-run. A
// 500-request SAMATE workload driven through the router must complete
// with zero client-visible failures, every fix output byte-identical
// to a direct single-cfixd run, and the retry/ejection machinery
// observable in /metrics.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/samate"
	"repro/internal/server"

	"repro/pkg/cfix"
)

// startCfixd runs a real in-process cfixd backend with its own result
// cache and returns its base URL.
func startCfixd(t *testing.T) string {
	t.Helper()
	rc, err := cfix.NewResultCache(32<<20, "")
	if err != nil {
		t.Fatalf("NewResultCache: %v", err)
	}
	srv := server.New(server.Config{Cache: rc, MaxInFlight: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// fixOnce posts one fix request and returns the status and decoded
// response with the Cached flag normalized away (whether a backend
// answered from its cache is not part of the fix output).
func fixOnce(t *testing.T, baseURL string, p samate.Program) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(cfix.FixRequest{Filename: p.ID + ".c", Source: p.Source})
	resp, err := http.Post(baseURL+"/v1/fix", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, raw
	}
	var fr cfix.FixResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatalf("decoding fix response: %v", err)
	}
	fr.Cached = false
	norm, _ := json.Marshal(fr)
	return resp.StatusCode, norm
}

func TestChaosFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos E2E suite is not a -short test")
	}

	// The SAMATE workload: every generated program, cycled to 500
	// requests so the fleet sees repeats (cache hits, singleflight).
	var corpus []samate.Program
	for _, progs := range samate.GenerateAll() {
		corpus = append(corpus, progs...)
	}
	if len(corpus) == 0 {
		t.Fatal("empty SAMATE corpus")
	}
	const totalRequests = 500

	// Ground truth: run every unique program through a direct,
	// chaos-free single cfixd.
	direct := startCfixd(t)
	want := make(map[string][]byte, len(corpus))
	for _, p := range corpus {
		status, norm := fixOnce(t, direct, p)
		if status != http.StatusOK {
			t.Fatalf("direct run of %s failed: %d %s", p.ID, status, norm)
		}
		want[p.ID] = norm
	}

	// The fleet: two healthy backends plus one reached through the
	// chaos proxy. The proxy injects a latency spike window, then a
	// window of 500s, then kills the backend for good mid-run.
	a, b := startCfixd(t), startCfixd(t)
	chaotic := startCfixd(t)
	// Every failed attempt on the proxy is retried on the next replica,
	// and the proxy stays in rotation until probes eject it, so the kill
	// at serving request 20 is reached regardless of run speed.
	proxy := fault.NewChaosProxy(chaotic,
		fault.ChaosRule{From: 3, To: 8, Action: fault.ChaosLatency, Latency: 150 * time.Millisecond},
		fault.ChaosRule{From: 10, To: 12, Action: fault.ChaosError},
		fault.ChaosRule{From: 20, To: 20, Action: fault.ChaosKill},
	)
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("starting chaos proxy: %v", err)
	}
	t.Cleanup(proxy.Close)

	rt, err := NewRouter(Config{
		Backends:        []string{a, b, proxy.URL()},
		MaxInFlight:     64,
		Retries:         2,
		HedgeAfter:      100 * time.Millisecond,
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    2 * time.Second, // -race + full pipeline saturates CPU; don't eject on jitter
		UpstreamTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { router.Close(); rt.Close() })

	// Drive the 500-request workload with a small worker pool so the
	// kill lands while requests are in flight.
	type result struct {
		id     string
		status int
		norm   []byte
	}
	results := make([]result, totalRequests)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := 0; i < totalRequests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			p := corpus[i%len(corpus)]
			status, norm := fixOnce(t, router.URL, p)
			results[i] = result{id: p.ID, status: status, norm: norm}
		}(i)
	}
	wg.Wait()

	// Acceptance: zero failed requests, every output byte-identical to
	// the direct run.
	failures, mismatches := 0, 0
	for i, r := range results {
		if r.status != http.StatusOK {
			failures++
			if failures <= 3 {
				t.Errorf("request %d (%s): status %d: %s", i, r.id, r.status, r.norm)
			}
			continue
		}
		if !bytes.Equal(r.norm, want[r.id]) {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("request %d (%s): output differs from direct run:\n fleet: %s\ndirect: %s",
					i, r.id, r.norm, want[r.id])
			}
		}
	}
	if failures > 0 || mismatches > 0 {
		t.Fatalf("chaos run: %d failed requests, %d output mismatches (want 0, 0)", failures, mismatches)
	}
	if !proxy.Killed() {
		t.Fatal("the kill rule never fired: the workload did not exercise the backend loss")
	}

	// The machinery must be observable through the router's /metrics
	// endpoint, not just internal state.
	resp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m RouterSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	if len(m.Backends) != 3 {
		t.Fatalf("want 3 backends in /metrics, got %d", len(m.Backends))
	}
	if m.RetriedTotal == 0 {
		t.Error("injected 500s and a kill: want retried_total > 0")
	}
	var ejections int64
	for _, bs := range m.Backends {
		ejections += bs.EjectedTotal
	}
	if ejections != 1 {
		t.Errorf("exactly one backend died: want 1 ejection, got %d (%+v)", ejections, m.Backends)
	}
	dead := m.Backends[proxy.URL()]
	if dead.Healthy {
		t.Error("the killed backend must be marked unhealthy in /metrics")
	}
	if m.RoutedTotal == 0 || m.UpstreamFailures == 0 {
		t.Errorf("want routed_total > 0 and upstream_failures > 0, got %+v", m)
	}

	t.Logf("chaos run: %d requests, routed=%d retried=%d hedged=%d collapsed=%d upstream_failures=%d ejections=%d",
		totalRequests, m.RoutedTotal, m.RetriedTotal, m.HedgedTotal, m.CollapsedTotal, m.UpstreamFailures, ejections)
}
