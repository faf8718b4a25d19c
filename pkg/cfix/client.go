package cfix

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Client talks to a cfixd daemon or fleet router over the service's
// HTTP/JSON API. The zero value is not usable; create one with
// NewClient. All methods are safe for concurrent use.
//
// Retry discipline: the service tier answers 429 (admission control)
// and 503 (drain, overload) with a Retry-After header; the
// client honors it — it sleeps the advertised interval (clamped to
// MaxRetryAfter, jittered when absent) and retries up to MaxRetries
// times instead of failing a shed request immediately. Every other
// status is returned to the caller on the first attempt: a 422 parse
// error or 400 bad option will not get better by asking again.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// HTTPClient issues the requests; nil means a dedicated client with
	// sane connection pooling. Its Timeout is left alone — per-request
	// deadlines come from RequestTimeout and the caller's context.
	HTTPClient *http.Client
	// MaxRetries bounds retries after 429/503 responses (0 means the
	// NewClient default of 4; negative disables retrying).
	MaxRetries int
	// MaxRetryAfter clamps how long a single Retry-After wait may be
	// (default 5s) so a misbehaving server cannot park the client.
	MaxRetryAfter time.Duration
	// RequestTimeout bounds one logical call including retries and
	// Retry-After sleeps (default 2m; <= 0 keeps the default). The
	// caller's context can always impose something shorter.
	RequestTimeout time.Duration

	randMu sync.Mutex
	rand   *rand.Rand

	// sessMu guards sessions, the state held for each session this
	// client opened (session.go).
	sessMu   sync.Mutex
	sessions map[string]*clientSession
}

// NewClient builds a client for the service at baseURL with the default
// retry discipline.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:        strings.TrimRight(baseURL, "/"),
		MaxRetries:     4,
		MaxRetryAfter:  5 * time.Second,
		RequestTimeout: 2 * time.Minute,
	}
}

// StatusError is a non-2xx service answer that was not retried away:
// the HTTP status plus the error message from the JSON error body.
type StatusError struct {
	Status int
	// Msg is the server's "error" field (or raw body when not JSON).
	Msg string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cfix client: server answered %d: %s", e.Status, e.Msg)
}

// Fix transforms one translation unit through POST /v1/fix.
func (c *Client) Fix(ctx context.Context, req FixRequest) (*FixResponse, error) {
	var resp FixResponse
	if err := c.call(ctx, "/v1/fix", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Lint statically diagnoses one translation unit through POST /v1/lint.
func (c *Client) Lint(ctx context.Context, req LintRequest) (*LintResponse, error) {
	var resp LintResponse
	if err := c.call(ctx, "/v1/lint", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch processes many translation units through POST /v1/batch.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	var resp BatchResponse
	if err := c.call(ctx, "/v1/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Project processes a whole project (sources inline) through
// POST /v1/project: built-in preprocessing, cross-file seeding, and
// repairs remapped into the original text.
func (c *Client) Project(ctx context.Context, req ProjectRequest) (*ProjectResponse, error) {
	var resp ProjectResponse
	if err := c.call(ctx, "/v1/project", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz reports whether the service answers its liveness probe.
func (c *Client) Healthz(ctx context.Context) error {
	return c.get(ctx, "/healthz", nil)
}

// Readyz reports whether the service is accepting work: nil when ready,
// a *StatusError with status 503 while draining.
func (c *Client) Readyz(ctx context.Context) error {
	return c.get(ctx, "/readyz", nil)
}

// MetricsRaw fetches GET /metrics decoded into a generic map — the
// shape differs between a single daemon and a fleet router, so callers
// pick the fields they need (cfixload reads retry/hedge/cache counters
// this way).
func (c *Client) MetricsRaw(ctx context.Context) (map[string]any, error) {
	var m map[string]any
	if err := c.get(ctx, "/metrics", &m); err != nil {
		return nil, err
	}
	return m, nil
}

// get issues one GET without the retry loop (probes answer immediately).
func (c *Client) get(ctx context.Context, path string, out any) error {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("cfix client: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("cfix client: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("cfix client: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Status: resp.StatusCode, Msg: errorMessage(body)}
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("cfix client: decoding response: %w", err)
		}
	}
	return nil
}

// call POSTs one JSON request and decodes the JSON answer, retrying
// shed responses (429/503) per the Retry-After contract. A request whose
// text is not valid UTF-8 is refused before anything is sent.
func (c *Client) call(ctx context.Context, path string, in, out any) error {
	if !validUTF8(in) {
		return fmt.Errorf("cfix client: %s request text is not valid UTF-8", path)
	}
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cfix client: encoding request: %w", err)
	}
	ctx, cancel := c.callCtx(ctx)
	defer cancel()

	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = 4
	}
	for attempt := 0; ; attempt++ {
		status, after, respBody, err := c.post(ctx, path, body)
		switch {
		case err != nil:
			return fmt.Errorf("cfix client: %w", err)
		case status == http.StatusOK:
			if err := json.Unmarshal(respBody, out); err != nil {
				return fmt.Errorf("cfix client: decoding response: %w", err)
			}
			return nil
		case (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) && attempt < maxRetries:
			if err := c.sleepRetryAfter(ctx, parseRetryAfter(after)); err != nil {
				return &StatusError{Status: status, Msg: errorMessage(respBody) +
					fmt.Sprintf(" (gave up waiting to retry: %v)", err)}
			}
		default:
			return &StatusError{Status: status, Msg: errorMessage(respBody)}
		}
	}
}

// post issues one POST attempt, returning the status, the Retry-After
// header (empty when absent) and the response body.
func (c *Client) post(ctx context.Context, path string, body []byte) (status int, retryAfter string, respBody []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, "", nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), data, nil
}

// parseRetryAfter understands both Retry-After encodings (delta-seconds
// and HTTP-date); anything else means "no advice" (0).
func parseRetryAfter(after string) time.Duration {
	if after == "" {
		return 0
	}
	if secs, err := strconv.Atoi(after); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(after); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// errorMessage extracts the server's JSON error field, falling back to
// the raw (first-line) body.
func errorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(body))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if s == "" {
		s = "(empty response body)"
	}
	return s
}

// sleepRetryAfter waits out one shed response: the advertised interval
// clamped to MaxRetryAfter, or a small jittered default when the server
// named none. Context cancellation cuts the sleep short with an error.
func (c *Client) sleepRetryAfter(ctx context.Context, after time.Duration) error {
	maxWait := c.MaxRetryAfter
	if maxWait <= 0 {
		maxWait = 5 * time.Second
	}
	if after <= 0 {
		after = time.Duration(50+c.intn(150)) * time.Millisecond
	} else {
		// Jitter the advertised interval ±25% so a herd of shed clients
		// does not return in lockstep.
		quarter := int(after / 4)
		if quarter > 0 {
			after = after - time.Duration(quarter) + time.Duration(c.intn(2*quarter))
		}
	}
	if after > maxWait {
		after = maxWait
	}
	t := time.NewTimer(after)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// intn is rand.Intn behind the client's lock (clients are shared across
// goroutines; the global rand would be fine but keeps tests flakier).
func (c *Client) intn(n int) int {
	c.randMu.Lock()
	defer c.randMu.Unlock()
	if c.rand == nil {
		c.rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return c.rand.Intn(n)
}

// callCtx applies the client-side request timeout when the caller's
// context does not already impose a sooner deadline.
func (c *Client) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	timeout := c.RequestTimeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= timeout {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// defaultTransport is shared by every Client without an explicit
// HTTPClient: service traffic is many small requests to few hosts, so
// raise the per-host idle pool well above net/http's default of 2.
var defaultTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

var defaultHTTPClient = &http.Client{Transport: defaultTransport}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// validUTF8 reports whether every text a request carries — file and
// header names, sources, header texts and delta texts — is valid UTF-8.
// encoding/json would replace each invalid byte with U+FFFD, so the
// service would analyse, and answer offsets into, a text other than the
// caller's.
func validUTF8(in any) bool {
	ok := utf8.ValidString
	switch r := in.(type) {
	case FixRequest:
		return ok(r.Filename) && ok(r.Source)
	case LintRequest:
		return ok(r.Filename) && ok(r.Source)
	case SessionOpenRequest:
		return ok(r.Filename) && ok(r.Source)
	case BatchRequest:
		for _, f := range r.Files {
			if !ok(f.Filename) || !ok(f.Source) {
				return false
			}
		}
	case ProjectRequest:
		for _, m := range []map[string]string{r.Files, r.Headers} {
			for name, text := range m {
				if !ok(name) || !ok(text) {
					return false
				}
			}
		}
	case SessionEditRequest:
		for _, d := range r.Deltas {
			if !ok(d.Text) {
				return false
			}
		}
	}
	return true
}
