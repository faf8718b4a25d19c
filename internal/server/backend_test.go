package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/cparse"
	"repro/pkg/cfix"
)

// TestFixBackendSelection drives the backend request option end to end:
// a request naming "bsd" gets BSD-dialect output and is counted under
// its canonical name in /metrics, an unknown dialect is a 400 naming
// the valid set, and a request naming nothing inherits the server's
// configured default.
func TestFixBackendSelection(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})

	var bsd cfix.FixResponse
	status, raw := postJSON(t, ts.URL+"/v1/fix", cfix.FixRequest{
		Filename: "vuln.c",
		Source:   overflowing,
		Options:  cfix.RequestOptions{Backend: "bsd"},
	}, &bsd)
	if status != http.StatusOK {
		t.Fatalf("bsd fix: %d %s", status, raw)
	}
	if !strings.Contains(bsd.Source, "strlcpy(") || strings.Contains(bsd.Source, "g_strlcpy(") {
		t.Fatalf("bsd dialect not applied:\n%s", bsd.Source)
	}
	if bsd.Backend != "bsd" {
		t.Fatalf("response backend = %q, want bsd", bsd.Backend)
	}

	// Unknown dialects are rejected before any analysis, naming the
	// valid set so the client can correct the request.
	status, raw = postJSON(t, ts.URL+"/v1/fix", cfix.FixRequest{
		Filename: "vuln.c",
		Source:   overflowing,
		Options:  cfix.RequestOptions{Backend: "musl"},
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown backend: %d %s, want 400", status, raw)
	}
	for _, name := range []string{"musl", "glib", "bsd", "c11k"} {
		if !strings.Contains(raw, name) {
			t.Fatalf("400 body %q does not mention %q", raw, name)
		}
	}

	// Only the transforming request was counted, under its canonical
	// dialect name; the rejected request never reached the counter.
	m := srv.Metrics()
	if m.BackendRequests["bsd"] != 1 {
		t.Fatalf("backend_requests = %v, want bsd:1", m.BackendRequests)
	}
	if _, ok := m.BackendRequests["musl"]; ok {
		t.Fatalf("rejected backend counted: %v", m.BackendRequests)
	}
}

// TestFixBackendServerDefault checks the -backend daemon flag's
// semantics: requests that name no dialect get the configured one.
func TestFixBackendServerDefault(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{Backend: "c11k"})

	var resp cfix.FixResponse
	status, raw := postJSON(t, ts.URL+"/v1/fix", cfix.FixRequest{
		Filename: "vuln.c",
		Source:   overflowing,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("fix: %d %s", status, raw)
	}
	if resp.Backend != "c11k" {
		t.Fatalf("response backend = %q, want configured default c11k", resp.Backend)
	}
	if !strings.Contains(resp.Source, "strcpy_s(") {
		t.Fatalf("c11k dialect not applied:\n%s", resp.Source)
	}
	if m := srv.Metrics(); m.BackendRequests["c11k"] != 1 {
		t.Fatalf("backend_requests = %v, want c11k:1", m.BackendRequests)
	}

	// An explicit request still overrides the server default.
	var glib cfix.FixResponse
	if status, raw := postJSON(t, ts.URL+"/v1/fix", cfix.FixRequest{
		Filename: "vuln.c",
		Source:   overflowing,
		Options:  cfix.RequestOptions{Backend: "glib"},
	}, &glib); status != http.StatusOK {
		t.Fatalf("glib fix: %d %s", status, raw)
	}
	if glib.Backend != "glib" || !strings.Contains(glib.Source, "g_strlcpy(") {
		t.Fatalf("explicit glib did not override default: backend=%q", glib.Backend)
	}
}

// TestInvalidOptionsRejectedBeforeParse: an invalid check selection or
// an unknown backend is a 400 naming the valid set, answered before any
// parse, on every endpoint that takes options — lint and session open
// included, not only fix.
func TestInvalidOptionsRejectedBeforeParse(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		opts cfix.RequestOptions
		want string
	}{
		{"unknown check", cfix.RequestOptions{Checks: "bogus"}, "buf, int, all"},
		{"empty check list", cfix.RequestOptions{Checks: ","}, "no checks selected"},
		{"unknown backend", cfix.RequestOptions{Backend: "nope"}, "glib, bsd, c11k"},
	}
	for _, c := range cases {
		for _, path := range []string{"/v1/lint", "/v1/session/open"} {
			before := cparse.Parses()
			status, raw := postJSON(t, ts.URL+path,
				cfix.FixRequest{Filename: "vuln.c", Source: overflowing, Options: c.opts}, nil)
			if status != http.StatusBadRequest {
				t.Errorf("%s on %s: %d %s, want 400", c.name, path, status, raw)
			}
			if !strings.Contains(raw, c.want) {
				t.Errorf("%s on %s: body %q does not mention %q", c.name, path, raw, c.want)
			}
			if got := cparse.Parses() - before; got != 0 {
				t.Errorf("%s on %s: parsed %d times before rejecting, want 0", c.name, path, got)
			}
		}
	}
}
