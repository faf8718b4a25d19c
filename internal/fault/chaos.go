package fault

// This file extends the fault-containment toolkit upward, from the
// solver layer to the service layer: ChaosProxy is a fault-injecting
// HTTP proxy that sits between the fleet router and one cfixd backend
// and misbehaves on command — added latency, connection drops, bare
// 500s, truncated response bodies, and whole-backend kills — keyed by
// request count so a test script is deterministic. The chaos test
// suites (internal/fleet, CI's fleet smoke) drive it to prove that the
// routing tier's retries, hedging and health ejection turn every
// injected fault into a served request, never a failed one.
//
// The proxy speaks plain HTTP/1.1 and forwards bodies verbatim; it
// never inspects payloads, so it stays below pkg/cfix and imports
// nothing from the analysis stack.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosAction names one injected fault.
type ChaosAction int

const (
	// ChaosNone forwards the request untouched.
	ChaosNone ChaosAction = iota
	// ChaosLatency sleeps Rule.Latency before forwarding — a tail-latency
	// spike the router should hedge around.
	ChaosLatency
	// ChaosDrop closes the client connection without writing a response —
	// the client sees a connection reset / unexpected EOF.
	ChaosDrop
	// ChaosError answers 500 without forwarding — an upstream crash the
	// router should retry on another replica.
	ChaosError
	// ChaosTruncate forwards the request but writes only half the
	// response body under the full Content-Length, then severs the
	// connection — a torn response the client must treat as a failure,
	// never as a short result.
	ChaosTruncate
	// ChaosKill closes the proxy's listener: this and every subsequent
	// connection is refused, exactly like a crashed backend process. The
	// router's health prober must eject the backend.
	ChaosKill
)

// String names the action for logs and test output.
func (a ChaosAction) String() string {
	switch a {
	case ChaosNone:
		return "none"
	case ChaosLatency:
		return "latency"
	case ChaosDrop:
		return "drop"
	case ChaosError:
		return "error"
	case ChaosTruncate:
		return "truncate"
	case ChaosKill:
		return "kill"
	}
	return fmt.Sprintf("ChaosAction(%d)", int(a))
}

// ChaosRule applies Action to proxied requests numbered [From, To]
// (1-based, counted in arrival order; To == 0 means "From and ever
// after"). Health-endpoint probes (GET /healthz, /readyz) are counted
// and faulted only when Rule.IncludeProbes is set — chaos scripts
// usually target the serving path and let the prober see the truth.
type ChaosRule struct {
	From, To      int
	Action        ChaosAction
	Latency       time.Duration // ChaosLatency only
	IncludeProbes bool
}

// matches reports whether the rule covers request number n.
func (r ChaosRule) matches(n int, probe bool) bool {
	if probe && !r.IncludeProbes {
		return false
	}
	return n >= r.From && (r.To == 0 || n <= r.To)
}

// ChaosProxy fronts one HTTP backend and injects faults per its rules.
// Create with NewChaosProxy, then Start; Addr gives the listen address
// to hand to the router. All methods are safe for concurrent use; the
// rule set is immutable after Start.
type ChaosProxy struct {
	target string // backend base URL, e.g. http://127.0.0.1:9001
	rules  []ChaosRule

	ln     net.Listener
	srv    *http.Server
	client *http.Client

	reqs     atomic.Int64 // proxied serving requests (probe requests counted separately)
	probes   atomic.Int64
	injected atomic.Int64 // faults actually injected
	killed   atomic.Bool

	mu     sync.Mutex
	closed bool
}

// NewChaosProxy builds a proxy for the backend at target ("http://host:port")
// with a fault script. Rules are evaluated in order; the first match wins.
func NewChaosProxy(target string, rules ...ChaosRule) *ChaosProxy {
	return &ChaosProxy{
		target: strings.TrimRight(target, "/"),
		rules:  rules,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     30 * time.Second,
		}},
	}
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves until Close or a ChaosKill rule fires.
func (p *ChaosProxy) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("chaos proxy: %w", err)
	}
	p.ln = ln
	p.srv = &http.Server{Handler: http.HandlerFunc(p.serve)}
	go func() {
		// Serve returns when the listener closes (Close or ChaosKill);
		// either way the proxy is done, not broken.
		_ = p.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the proxy's listen address (valid after Start).
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL (valid after Start).
func (p *ChaosProxy) URL() string { return "http://" + p.Addr() }

// Requests reports proxied serving requests (excluding health probes).
func (p *ChaosProxy) Requests() int64 { return p.reqs.Load() }

// Injected reports how many faults actually fired.
func (p *ChaosProxy) Injected() int64 { return p.injected.Load() }

// Killed reports whether a ChaosKill rule has taken the backend down.
func (p *ChaosProxy) Killed() bool { return p.killed.Load() }

// Kill force-fires the whole-backend kill: the listener closes and
// every open proxy connection is severed, exactly as if the backend
// process died. Idempotent.
func (p *ChaosProxy) Kill() {
	if p.killed.Swap(true) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	// Close (not Shutdown): a dying process does not drain.
	_ = p.srv.Close()
}

// Close stops the proxy without simulating a crash (test cleanup).
func (p *ChaosProxy) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	_ = p.srv.Close()
}

// isProbe classifies health-check traffic.
func isProbe(r *http.Request) bool {
	return r.Method == http.MethodGet && (r.URL.Path == "/healthz" || r.URL.Path == "/readyz")
}

// serve handles one proxied request: pick the first matching rule,
// inject its fault, and otherwise forward verbatim.
func (p *ChaosProxy) serve(w http.ResponseWriter, r *http.Request) {
	probe := isProbe(r)
	var n int
	if probe {
		n = int(p.probes.Add(1))
	} else {
		n = int(p.reqs.Add(1))
	}
	action := ChaosNone
	var latency time.Duration
	for _, rule := range p.rules {
		if rule.matches(n, probe) {
			action, latency = rule.Action, rule.Latency
			break
		}
	}

	switch action {
	case ChaosKill:
		p.injected.Add(1)
		p.Kill()
		// The listener is gone; sever this connection too so the client
		// never gets a response from a "dead" process.
		abortConn()
	case ChaosDrop:
		p.injected.Add(1)
		abortConn()
	case ChaosError:
		p.injected.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":"chaos: injected upstream failure"}`)
		return
	case ChaosLatency:
		p.injected.Add(1)
		time.Sleep(latency)
	}

	status, header, body, err := p.forward(r)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, `{"error":"chaos proxy: forwarding: %s"}`+"\n", strings.ReplaceAll(err.Error(), `"`, `'`))
		return
	}

	if action == ChaosTruncate {
		p.injected.Add(1)
		// Advertise the full length, deliver half, sever: the client
		// must see an unexpected EOF, not a plausible short body.
		copyHeader(w.Header(), header)
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.WriteHeader(status)
		if len(body) > 1 {
			_, _ = w.Write(body[:len(body)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
		abortConn()
	}

	copyHeader(w.Header(), header)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// forward relays the request to the target backend.
func (p *ChaosProxy) forward(r *http.Request) (status int, header http.Header, body []byte, err error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), r.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, body, nil
}

// copyHeader copies response headers, skipping hop-by-hop fields.
func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Content-Length":
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// abortConn severs the client connection mid-request by panicking with
// net/http's sanctioned sentinel: the server closes the connection
// without completing (or starting) the response and suppresses the
// panic log. Anything already flushed stays on the wire, which is
// exactly what a torn response looks like.
func abortConn() {
	panic(http.ErrAbortHandler)
}
