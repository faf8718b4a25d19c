package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/pkg/cfix"
)

// Fixed routing constants: no test or benchmark has needed other values.
const (
	// workersPerCPU bounds the batch endpoint's fan-out concurrency.
	workersPerCPU = 4
	// retryBackoff is the base delay before a retry, doubled per attempt
	// and jittered ±50%.
	retryBackoff = 25 * time.Millisecond
	// probeFailLimit consecutive failed probes eject a backend.
	probeFailLimit = 2
	// probeBackoffIntervals caps an ejected backend's probe period at
	// this many ProbeIntervals (15s at the default 1s).
	probeBackoffIntervals = 15
)

// Config tunes the router; zero values get sane defaults.
type Config struct {
	// Backends are the cfixd base URLs the fleet routes over ("host:port"
	// or "http://host:port"). Required, at least one.
	Backends []string

	// MaxInFlight bounds concurrently admitted analysis requests, same
	// contract as the single daemon (429 + Retry-After beyond).
	// <= 0 means 8 per CPU — the router only shuffles bytes, so it
	// admits more than a computing backend would.
	MaxInFlight int
	// MaxRequestBytes caps a request body; larger bodies answer 413.
	// <= 0 means 16 MiB.
	MaxRequestBytes int64

	// Retries bounds upstream attempts after the first per request
	// (connect errors and retryable statuses only). < 0 disables
	// retrying; 0 means the default 2.
	Retries int
	// HedgeAfter launches a duplicate attempt on the next replica when
	// the current one has not answered within this duration — the
	// tail-latency insurance. <= 0 disables hedging; a hedge consumes
	// one attempt from the same budget as retries.
	HedgeAfter time.Duration
	// UpstreamTimeout bounds one upstream attempt (<= 0 means 2m).
	UpstreamTimeout time.Duration

	// ProbeInterval is the readiness-probe period per healthy backend
	// (<= 0 means 1s); ProbeTimeout bounds one probe (<= 0 means 1s,
	// deliberately independent of the interval: a tight probe cadence
	// must not imply a deadline so short that scheduling jitter on a
	// loaded host ejects healthy backends; probes are sequential per
	// backend, so a timeout above the interval only stretches that
	// backend's own cadence).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// Log receives routing events (ejections, reinstatements) and
	// recovered panics; nil means the process default logger.
	Log *log.Logger
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8 * runtime.NumCPU()
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 16 << 20
	}
	switch {
	case c.Retries < 0:
		c.Retries = 0
	case c.Retries == 0:
		c.Retries = 2
	}
	if c.UpstreamTimeout <= 0 {
		c.UpstreamTimeout = 2 * time.Minute
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Router fronts the fleet: its endpoints run on the daemon's request
// path (server.Tier). Create with NewRouter, mount with Handler, drain
// with BeginDrain + http.Server.Shutdown, stop the probers with Close.
type Router struct {
	*server.Tier
	conf        Config
	ring        *Ring
	backends    map[string]*backendState
	backendList []*backendState
	gate        *server.Gate
	client      *http.Client
	m           routerMetrics

	flightMu sync.Mutex
	flights  map[string]*flight

	randMu sync.Mutex
	rand   *rand.Rand

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewRouter builds the routing tier and starts its health probers.
func NewRouter(conf Config) (*Router, error) {
	conf = conf.withDefaults()
	if len(conf.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	urls := make([]string, 0, len(conf.Backends))
	seen := make(map[string]bool)
	for _, b := range conf.Backends {
		u := normalizeBackendURL(b)
		if u == "" {
			return nil, fmt.Errorf("fleet: empty backend in %q", strings.Join(conf.Backends, ","))
		}
		if seen[u] {
			return nil, fmt.Errorf("fleet: duplicate backend %s", u)
		}
		seen[u] = true
		urls = append(urls, u)
	}

	rt := &Router{
		conf:     conf,
		ring:     NewRing(urls, defaultVnodes),
		backends: make(map[string]*backendState, len(urls)),
		gate:     server.NewGate(conf.MaxInFlight),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        32 * len(urls),
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}},
		flights: make(map[string]*flight),
		rand:    rand.New(rand.NewSource(time.Now().UnixNano())),
		done:    make(chan struct{}),
	}
	for _, u := range urls {
		be := &backendState{url: u}
		rt.backends[u] = be
		rt.backendList = append(rt.backendList, be)
	}
	rt.Tier = server.NewTier(server.TierConfig{
		Name:            "fleet",
		Log:             conf.Log,
		Gate:            rt.gate,
		MaxRequestBytes: conf.MaxRequestBytes,
		Health:          rt.health,
		Metrics:         func() any { return rt.Metrics() },
	})
	server.Handle(rt.Tier, "/v1/fix", server.Endpoint[cfix.FixRequest]{
		Count: &rt.m.fixRequests, Check: server.CheckUnit, Run: rt.single("fix")})
	// The lint wire shape has the fix request's fields.
	server.Handle(rt.Tier, "/v1/lint", server.Endpoint[cfix.FixRequest]{
		Count: &rt.m.lintRequests, Check: server.CheckUnit, Run: rt.single("lint")})
	server.Handle(rt.Tier, "/v1/batch", server.Endpoint[cfix.BatchRequest]{
		Count: &rt.m.batchRequests, Check: server.CheckBatch, Run: rt.batch})
	rt.probeBackends()
	return rt, nil
}

// Close stops the health probers. Safe to call more than once.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.done) })
	rt.wg.Wait()
}

// Metrics returns the /metrics payload for embedding and tests.
func (rt *Router) Metrics() RouterSnapshot { return rt.snapshot() }

// Backends returns the normalized, deduplicated backend URLs on the ring.
func (rt *Router) Backends() []string { return rt.ring.Members() }

// health adds the fleet's shape to the router's /healthz answer.
func (rt *Router) health() map[string]any {
	healthy := 0
	for _, be := range rt.backendList {
		if be.available() {
			healthy++
		}
	}
	return map[string]any{
		"router":           true,
		"backends_total":   len(rt.backendList),
		"backends_healthy": healthy,
	}
}

// --- single-request routing (fix, lint) ---

// single routes one checked fix or lint request: its raw body goes
// through the fleet by its content fingerprint, with singleflight
// collapsing.
func (rt *Router) single(kind string) func(context.Context, *server.Call, *cfix.FixRequest) (any, error) {
	return func(ctx context.Context, c *server.Call, req *cfix.FixRequest) (any, error) {
		key := cfix.RequestKey(kind, req.Filename, req.Source, req.Options)
		return rt.routeShared(ctx, "/v1/"+kind, c.Body, key)
	}
}

// flight is one in-progress routed computation; concurrent identical
// requests wait for it instead of multiplying load on the shard.
type flight struct {
	done  chan struct{}
	reply *server.Reply
}

// routeShared collapses concurrent identical requests (same content
// fingerprint) into one upstream call — the fleet-wide singleflight
// that keeps a thundering herd on a hot file from computing on N
// shards, or N times on one.
func (rt *Router) routeShared(ctx context.Context, path string, body []byte, key string) (*server.Reply, error) {
	rt.flightMu.Lock()
	if f, ok := rt.flights[key]; ok {
		rt.m.collapsed.Add(1)
		rt.flightMu.Unlock()
		select {
		case <-f.done:
			return f.reply, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	rt.flights[key] = f
	rt.flightMu.Unlock()

	// The upstream call runs on a context detached from this client:
	// collapsed followers must not lose the result because the leader
	// hung up first. UpstreamTimeout still bounds each attempt.
	f.reply = rt.route(context.WithoutCancel(ctx), path, body, key)

	rt.flightMu.Lock()
	delete(rt.flights, key)
	rt.flightMu.Unlock()
	close(f.done)
	return f.reply, nil
}

// attemptResult is one upstream attempt's report: an upstream response
// (any status) or a transport failure.
type attemptResult struct {
	reply *server.Reply
	err   error
	be    *backendState
}

// retryableStatus reports whether an upstream HTTP status should be
// tried on another replica: transient server-side trouble, yes;
// deterministic client-side rejections (400/413/422), no. 429 is
// retryable — another shard may have capacity. 500 is retryable — a
// chaos-injected or flaky failure heals elsewhere, and a deterministic
// panic just costs a bounded number of extra attempts.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, http.StatusTooManyRequests:
		return true
	}
	return false
}

// route sends one request through the fleet: consistent-hash replica
// order, skipping ejected backends, bounded retries with jittered
// exponential backoff on connect/5xx failures, and a hedged duplicate
// to the next replica when the tail is slow. Retries and hedges spend
// one attempt budget. The answer is an upstream response, or a 502/503
// once the budget is spent.
func (rt *Router) route(ctx context.Context, path string, body []byte, key string) *server.Reply {
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	replicas := rt.ring.Replicas(key)
	maxAttempts := rt.conf.Retries + 1
	// The candidate sequence cycles the replica preference order so a
	// single-backend fleet can still retry a transient failure.
	candidates := make([]*backendState, 0, maxAttempts)
	for i := 0; len(candidates) < maxAttempts; i++ {
		candidates = append(candidates, rt.backends[replicas[i%len(replicas)]])
	}

	results := make(chan attemptResult, maxAttempts)
	next := 0
	pending := 0
	launch := func(mode string) bool {
		for next < len(candidates) {
			be := candidates[next]
			next++
			if !be.available() {
				continue
			}
			switch mode {
			case "retry":
				be.retried.Add(1)
				rt.m.retriedTotal.Add(1)
			case "hedge":
				be.hedged.Add(1)
				rt.m.hedgedTotal.Add(1)
			}
			be.routed.Add(1)
			rt.m.routedTotal.Add(1)
			pending++
			go func() {
				reply, err := rt.attempt(ctx, be, path, body)
				results <- attemptResult{reply: reply, err: err, be: be}
			}()
			return true
		}
		return false
	}

	if !launch("primary") {
		rt.m.unroutable.Add(1)
		return jsonError(http.StatusServiceUnavailable, "fleet: no backend available (all ejected)")
	}

	var hedgeC <-chan time.Time
	if rt.conf.HedgeAfter > 0 {
		t := time.NewTimer(rt.conf.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var backoffC <-chan time.Time
	var lastFail attemptResult
	retryNo := 0

	for {
		select {
		case res := <-results:
			pending--
			if res.err == nil && !retryableStatus(res.reply.Status) {
				return res.reply
			}
			rt.m.upstreamFailures.Add(1)
			lastFail = res
			if pending == 0 && backoffC == nil {
				if next >= len(candidates) {
					return failReply(lastFail)
				}
				t := time.NewTimer(rt.backoff(retryNo))
				retryNo++
				defer t.Stop()
				backoffC = t.C
			}
		case <-backoffC:
			backoffC = nil
			if !launch("retry") && pending == 0 {
				return failReply(lastFail)
			}
		case <-hedgeC:
			hedgeC = nil
			launch("hedge")
		}
	}
}

// failReply renders the final failure once the attempt budget is
// spent: the last upstream HTTP answer if there was one (a 429/503
// passes its shedding through to the client), otherwise a 502
// describing the transport failure.
func failReply(last attemptResult) *server.Reply {
	if last.err == nil {
		return last.reply
	}
	return jsonError(http.StatusBadGateway, "fleet: upstream failed: "+firstLine(last.err.Error()))
}

// jsonError renders the service's error shape as a pre-rendered reply.
func jsonError(status int, msg string) *server.Reply {
	body, _ := json.Marshal(map[string]string{"error": msg})
	return &server.Reply{Status: status, ContentType: "application/json", Body: body}
}

// attempt issues one upstream request.
func (rt *Router) attempt(ctx context.Context, be *backendState, path string, body []byte) (*server.Reply, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.conf.UpstreamTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, be.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// A torn body (chaos truncation) is an attempt failure even
		// though headers arrived; the retry path recomputes it whole.
		return nil, fmt.Errorf("reading upstream response: %w", err)
	}
	return &server.Reply{Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"), Body: data}, nil
}

// backoff returns the jittered exponential delay before retry n.
func (rt *Router) backoff(n int) time.Duration {
	d := min(retryBackoff<<n, 2*time.Second)
	// ±50% jitter so synchronized failures do not retry in lockstep.
	rt.randMu.Lock()
	j := rt.rand.Int63n(int64(d) + 1)
	rt.randMu.Unlock()
	return d/2 + time.Duration(j)/2
}

// --- batch fan-out ---

// batch splits a checked batch into per-file subrequests, routes each by
// its own content fingerprint (so every file lands on its cache shard),
// and reassembles the answers in input order. A member without a source
// fails with the daemon's error and no upstream call; one member's
// routing failure is that member's Error, as in the daemon's batch.
func (rt *Router) batch(ctx context.Context, _ *server.Call, req *cfix.BatchRequest) (any, error) {
	rt.m.batchFiles.Add(int64(len(req.Files)))
	kind := "fix"
	if req.Lint {
		kind = "lint"
	}
	results, todo := server.SplitBatch(req)
	sem := make(chan struct{}, workersPerCPU*runtime.NumCPU())
	var wg sync.WaitGroup
	for _, i := range todo {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = rt.routeBatchFile(ctx, kind, req.Files[i], req.Options)
		}(i)
	}
	wg.Wait()
	return cfix.BatchResponse{Results: results}, nil
}

// routeBatchFile routes one batch member as a single fix/lint request.
func (rt *Router) routeBatchFile(ctx context.Context, kind string, f cfix.BatchFile, opts cfix.RequestOptions) cfix.BatchResult {
	res := cfix.BatchResult{Filename: f.Filename}
	sub, err := json.Marshal(cfix.FixRequest{Filename: f.Filename, Source: f.Source, Options: opts})
	if err != nil {
		res.Error = "encoding subrequest: " + err.Error()
		return res
	}
	key := cfix.RequestKey(kind, f.Filename, f.Source, opts)
	reply, err := rt.routeShared(ctx, "/v1/"+kind, sub, key)
	switch {
	case err != nil:
		res.Error = firstLine(err.Error())
	case reply.Status != http.StatusOK:
		res.Error = fmt.Sprintf("upstream status %d: %s", reply.Status, errorBody(reply.Body))
	case kind == "lint":
		var lr cfix.LintResponse
		if err := json.Unmarshal(reply.Body, &lr); err != nil {
			res.Error = "decoding upstream response: " + err.Error()
		} else {
			res.Lint = &lr
		}
	default:
		var fr cfix.FixResponse
		if err := json.Unmarshal(reply.Body, &fr); err != nil {
			res.Error = "decoding upstream response: " + err.Error()
		} else {
			res.Fix = &fr
		}
	}
	return res
}

// errorBody extracts an upstream JSON error message for batch Error
// fields; falls back to the first line of the raw body.
func errorBody(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return firstLine(strings.TrimSpace(string(body)))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
