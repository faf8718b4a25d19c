package cfix

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

const clientTestSource = `void f(void) {
    char buf[8];
    strcpy(buf, "far too long for eight");
}
`

// shedThenServe answers n requests with status (carrying Retry-After)
// before serving real fix responses.
func shedThenServe(t *testing.T, shed int, status int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= shed {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": "over capacity"})
			return
		}
		var req FixRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding request: %v", err)
		}
		rep, err := Fix(req.Filename, req.Source, Options{})
		if err != nil {
			t.Errorf("fix: %v", err)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(NewFixResponse(req.Filename, rep))
	}))
	return ts, &calls
}

// TestClientRetriesSheddingWithRetryAfter: 429 and 503 answers carrying
// Retry-After are waited out and retried, not surfaced to the caller.
func TestClientRetriesSheddingWithRetryAfter(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		ts, calls := shedThenServe(t, 2, status, "0")
		c := NewClient(ts.URL)
		resp, err := c.Fix(context.Background(), FixRequest{Filename: "v.c", Source: clientTestSource})
		if err != nil {
			t.Fatalf("status %d: client should have retried through shedding: %v", status, err)
		}
		if !resp.Changed {
			t.Errorf("status %d: expected a transforming fix response", status)
		}
		if got := calls.Load(); got != 3 {
			t.Errorf("status %d: want 3 attempts (2 shed + 1 served), got %d", status, got)
		}
		ts.Close()
	}
}

// TestClientRetryBudgetExhausted: persistent shedding surfaces the last
// status once MaxRetries is spent.
func TestClientRetryBudgetExhausted(t *testing.T) {
	ts, calls := shedThenServe(t, 1<<30, http.StatusTooManyRequests, "0")
	defer ts.Close()
	c := NewClient(ts.URL)
	c.MaxRetries = 2
	_, err := c.Fix(context.Background(), FixRequest{Filename: "v.c", Source: clientTestSource})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("want StatusError 429, got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("want 3 attempts (1 + 2 retries), got %d", got)
	}
}

// TestClientNoRetryOnClientError: a 422 is the caller's problem and must
// not be retried.
func TestClientNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(map[string]string{"error": "parse error"})
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	_, err := c.Fix(context.Background(), FixRequest{Filename: "v.c", Source: "not c at all"})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusUnprocessableEntity {
		t.Fatalf("want StatusError 422, got %v", err)
	}
	if se.Msg != "parse error" {
		t.Errorf("want decoded error body, got %q", se.Msg)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("want exactly 1 attempt, got %d", got)
	}
}

// TestClientContextCancelCutsRetrySleep: a cancelled context interrupts
// the Retry-After wait instead of sleeping it out.
func TestClientContextCancelCutsRetrySleep(t *testing.T) {
	ts, _ := shedThenServe(t, 1<<30, http.StatusServiceUnavailable, "30")
	defer ts.Close()
	c := NewClient(ts.URL)
	c.MaxRetryAfter = time.Minute // do not clamp below the header
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Fix(ctx, FixRequest{Filename: "v.c", Source: clientTestSource})
	if err == nil {
		t.Fatal("want an error after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation should cut the retry sleep short, took %s", elapsed)
	}
}

// TestClientRequestTimeout: the client-side request timeout bounds a
// hung server even when the caller passes a background context.
func TestClientRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)
	c := NewClient(ts.URL)
	c.RequestTimeout = 150 * time.Millisecond
	start := time.Now()
	_, err := c.Fix(context.Background(), FixRequest{Filename: "v.c", Source: clientTestSource})
	if err == nil {
		t.Fatal("want a timeout error from a hung server")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request timeout did not bound the call, took %s", elapsed)
	}
}

// TestClientParseRetryAfter covers both header encodings.
func TestClientParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("2"); d != 2*time.Second {
		t.Errorf("delta-seconds: want 2s, got %s", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("absent: want 0, got %s", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("garbage: want 0, got %s", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 0 || d > 10*time.Second {
		t.Errorf("http-date: want (0s, 10s], got %s", d)
	}
}

// TestClientRefusesNonUTF8: encoding/json would replace each byte of a
// Latin-1 text with U+FFFD, so the Client refuses a request carrying one
// in any of its texts before anything reaches the server.
func TestClientRefusesNonUTF8(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	latin1 := "char c = '\xe9';\n"
	calls1 := []struct {
		name string
		call func() error
	}{
		{"fix source", func() error { _, err := c.Fix(ctx, FixRequest{Filename: "l.c", Source: latin1}); return err }},
		{"lint filename", func() error {
			_, err := c.Lint(ctx, LintRequest{Filename: "caf\xe9.c", Source: clientTestSource})
			return err
		}},
		{"batch source", func() error {
			_, err := c.Batch(ctx, BatchRequest{Files: []BatchFile{{Filename: "a.c", Source: clientTestSource}, {Filename: "l.c", Source: latin1}}})
			return err
		}},
		{"project header", func() error {
			_, err := c.Project(ctx, ProjectRequest{Files: map[string]string{"a.c": clientTestSource}, Headers: map[string]string{"l.h": latin1}})
			return err
		}},
	}
	for _, tc := range calls1 {
		if err := tc.call(); err == nil || !strings.Contains(err.Error(), "UTF-8") {
			t.Errorf("%s: err = %v, want a UTF-8 refusal", tc.name, err)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d requests reached the server", n)
	}
}
