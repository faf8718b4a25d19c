package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/pkg/cfix"
)

// This file is the one request path. The daemon (Server) and the fleet
// router (internal/fleet.Router) both mount their endpoints on a Tier,
// so both shed load, cap and decode bodies, validate requests, contain
// panics, answer probes and write errors identically: a client or load
// balancer in front of either sees the same contract.

// statusError is a request failure that carries its HTTP status: a body
// that does not decode or is too large, a failed check, an unknown
// session, a full table.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func statusf(status int, format string, args ...any) error {
	return &statusError{status: status, msg: fmt.Sprintf(format, args...)}
}

// TierConfig configures one Tier.
type TierConfig struct {
	// Name prefixes the tier's log lines ("cfixd", "fleet").
	Name string
	// Log receives request errors and recovered panic stacks.
	Log *log.Logger
	// Gate bounds concurrently admitted requests; beyond it the tier
	// answers 429 + Retry-After.
	Gate *Gate
	// MaxRequestBytes caps a request body; larger bodies answer 413.
	MaxRequestBytes int64
	// Health adds fields to the /healthz answer; nil adds none.
	Health func() map[string]any
	// Metrics renders the /metrics answer.
	Metrics func() any
}

// Tier is one HTTP service tier: its routes, admission gate, probes,
// and the counters every tier reports. Create with NewTier, mount POST
// endpoints with Handle, serve Handler, drain with BeginDrain +
// http.Server.Shutdown.
type Tier struct {
	name     string
	log      *log.Logger
	maxBytes int64
	gate     *Gate
	mux      *http.ServeMux
	start    time.Time
	draining atomic.Bool

	latency                            LatencyHist
	healthz, readyz                    atomic.Int64
	clientErrors, serverErrors, panics atomic.Int64

	// The daemon's hooks; a router sets neither. observe folds a
	// finished request's spans into the stage metrics and the slow log;
	// resolve turns a request's wire options into the Call's effective
	// options.
	observe func(path, label string, spans []obs.Span, elapsed time.Duration)
	resolve func(c *Call, ro cfix.RequestOptions) error
}

// NewTier builds a tier with its /healthz, /readyz and /metrics routes.
func NewTier(conf TierConfig) *Tier {
	t := &Tier{
		name:     conf.Name,
		log:      conf.Log,
		maxBytes: conf.MaxRequestBytes,
		gate:     conf.Gate,
		mux:      http.NewServeMux(),
		start:    time.Now(),
	}
	t.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		t.healthz.Add(1)
		body := map[string]any{"status": "ok", "uptime_seconds": time.Since(t.start).Seconds()}
		if conf.Health != nil {
			maps.Copy(body, conf.Health())
		}
		t.writeJSON(w, http.StatusOK, body)
	})
	// /readyz is the routing tier's probe target: distinct from
	// liveness, it answers 503 as soon as drain begins so whatever sits
	// in front ejects this instance before its listener closes. A 503
	// here is not an error (the process is healthy, just leaving the
	// pool), so it is not counted against server errors.
	t.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		t.readyz.Add(1)
		if t.draining.Load() {
			w.Header().Set("Retry-After", "1")
			t.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		t.writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	})
	t.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		t.writeJSON(w, http.StatusOK, conf.Metrics())
	})
	return t
}

// Handler returns the tier's routes behind the last-resort panic
// containment: a panic that escapes a handler still answers 500 and the
// process keeps serving.
func (t *Tier) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				t.panics.Add(1)
				t.log.Printf("%s: panic escaped request handler %s: %v", t.name, r.URL.Path, fault.NewPanicError(rec))
				t.writeError(w, http.StatusInternalServerError, "internal error (panic recovered)")
			}
		}()
		t.mux.ServeHTTP(w, r)
	})
}

// BeginDrain flips /readyz to 503 so routing tiers eject this instance
// before its listener closes. Call it when graceful shutdown starts,
// then (optionally after a propagation grace) http.Server.Shutdown.
// Liveness and in-flight work are unaffected; idempotent.
func (t *Tier) BeginDrain() { t.draining.Store(true) }

// TierCounts is the part of /metrics every tier reports.
type TierCounts struct {
	UptimeSeconds  float64
	Healthz        int64
	Readyz         int64
	Draining       bool
	Rejected429    int64
	ClientErrors   int64
	ServerErrors   int64
	Panics         int64
	InFlight       int64
	LatencyBuckets map[string]int64
	LatencyTotalMs int64
}

// Counts reads the tier's counters.
func (t *Tier) Counts() TierCounts {
	return TierCounts{
		UptimeSeconds:  time.Since(t.start).Seconds(),
		Healthz:        t.healthz.Load(),
		Readyz:         t.readyz.Load(),
		Draining:       t.draining.Load(),
		Rejected429:    t.gate.Rejected(),
		ClientErrors:   t.clientErrors.Load(),
		ServerErrors:   t.serverErrors.Load(),
		Panics:         t.panics.Load(),
		InFlight:       t.gate.InFlight(),
		LatencyBuckets: t.latency.Buckets(),
		LatencyTotalMs: t.latency.TotalMs(),
	}
}

// Call is one request on its way down the path.
type Call struct {
	// Label names the request in logs: its filename, its file count, or
	// its session's filename.
	Label string
	// Tracer records the request's stage spans (nil on a router); they
	// are observed once when the request ends. A session endpoint swaps
	// in its session's tracer.
	Tracer *obs.Tracer
	// Body is the raw request body.
	Body []byte
	// Options are the effective pipeline options, set on the daemon for
	// requests that carry options; Options.Backend is the canonical
	// backend name.
	Options cfix.Options
}

// Reply is an answer rendered elsewhere and written through unchanged:
// a router's upstream response.
type Reply struct {
	Status      int
	ContentType string
	Body        []byte
}

// Endpoint is one POST endpoint: its request type, its checks, and its
// run-and-render step.
type Endpoint[Req any] struct {
	// Unadmitted endpoints skip admission control (session close only
	// frees resources, so it is never shed).
	Unadmitted bool
	// Count, when non-nil, counts requests past admission.
	Count *atomic.Int64
	// Check validates the decoded request and fills its defaults. It
	// returns the request's label and its wire options (nil when it
	// carries none); nil Check accepts every request.
	Check func(*Req) (label string, opts *cfix.RequestOptions, err error)
	// Run answers the request: a value rendered as 200 JSON, or a
	// *Reply written through as is.
	Run func(ctx context.Context, c *Call, req *Req) (any, error)
}

// Handle mounts ep at POST path. Every request admitted there is
// decoded strictly under the body cap, checked, given its effective
// options, run, observed (latency, and on the daemon stage spans and
// the slow log, also when it panics), and answered.
func Handle[Req any](t *Tier, path string, ep Endpoint[Req]) {
	t.mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
		if !ep.Unadmitted {
			release, ok := t.gate.Acquire()
			if !ok {
				t.fail(w, "", statusf(http.StatusTooManyRequests,
					"over capacity: %d requests in flight", cap(t.gate.sem)))
				return
			}
			defer release()
		}
		if ep.Count != nil {
			ep.Count.Add(1)
		}
		c := &Call{Label: "(undecoded)"}
		if t.observe != nil {
			c.Tracer = obs.NewTracer()
		}
		resp, err := serve(t, w, r, path, c, ep)
		if err != nil {
			t.fail(w, c.Label, err)
			return
		}
		if rp, ok := resp.(*Reply); ok {
			t.writeReply(w, rp)
			return
		}
		t.writeJSON(w, http.StatusOK, resp)
	})
}

// serve runs one admitted request up to its answer. The observation is
// deferred so it also sees requests that fail or panic midway, and it
// finishes before the answer is written, so a session's tracer is
// drained by the time its client reads the response.
func serve[Req any](t *Tier, w http.ResponseWriter, r *http.Request, path string, c *Call, ep Endpoint[Req]) (any, error) {
	defer func(start time.Time) {
		elapsed := time.Since(start)
		t.latency.Observe(elapsed)
		if t.observe != nil {
			t.observe(path, c.Label, c.Tracer.Drain(), elapsed)
		}
	}(time.Now())

	var req Req
	body, err := t.decode(w, r, &req)
	if err != nil {
		return nil, err
	}
	c.Body = body
	if ep.Check != nil {
		label, opts, err := ep.Check(&req)
		if err != nil {
			return nil, err
		}
		c.Label = label
		if opts != nil && t.resolve != nil {
			if err := t.resolve(c, *opts); err != nil {
				return nil, err
			}
		}
	}
	return ep.Run(r.Context(), c, &req)
}

// decode reads one request body under the size cap and decodes it
// strictly: an unknown field is the client's mistake, not something to
// drop silently.
func (t *Tier) decode(w http.ResponseWriter, r *http.Request, into any) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, t.maxBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, statusf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, statusf(http.StatusBadRequest, "reading request body: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return nil, statusf(http.StatusBadRequest, "bad request body: %v", err)
	}
	return body, nil
}

// CheckUnit validates a one-unit request (the lint and session-open
// wire shapes have the same fields): it needs a source and valid
// options (see checkOptions). The filename defaults to input.c and
// labels the request.
func CheckUnit(req *cfix.FixRequest) (string, *cfix.RequestOptions, error) {
	if req.Source == "" {
		return "", nil, errMissingSource
	}
	if err := checkOptions(req.Options); err != nil {
		return "", nil, err
	}
	req.Filename = requestFilename(req.Filename)
	return req.Filename, &req.Options, nil
}

// CheckBatch validates a batch: it needs files and valid options (see
// checkOptions). Every member's filename defaults to input.c; members
// are checked one by one in SplitBatch, so one bad member fails alone.
func CheckBatch(req *cfix.BatchRequest) (string, *cfix.RequestOptions, error) {
	if len(req.Files) == 0 {
		return "", nil, statusf(http.StatusBadRequest, "missing files")
	}
	if err := checkOptions(req.Options); err != nil {
		return "", nil, err
	}
	for i := range req.Files {
		req.Files[i].Filename = requestFilename(req.Files[i].Filename)
	}
	return fmt.Sprintf("%d files", len(req.Files)), &req.Options, nil
}

// SplitBatch starts a checked batch's answer: a member without a source
// gets the error /v1/fix would answer it with, before any analysis, and
// todo lists the members left to run.
func SplitBatch(req *cfix.BatchRequest) (results []cfix.BatchResult, todo []int) {
	results = make([]cfix.BatchResult, len(req.Files))
	for i, f := range req.Files {
		if f.Source == "" {
			results[i] = cfix.BatchResult{Filename: f.Filename, Error: errMissingSource.Error()}
			continue
		}
		todo = append(todo, i)
	}
	return results, todo
}

var errMissingSource = statusf(http.StatusBadRequest, "missing source")

// checkOptions answers 400, before any parse, for wire options no run
// could accept: a backend the registry does not know (an empty name is
// left to the daemon's default) or an invalid check selection.
func checkOptions(ro cfix.RequestOptions) error {
	if ro.Backend != "" {
		if _, err := cfix.CanonicalBackend(ro.Backend); err != nil {
			return statusf(http.StatusBadRequest, "%v", err)
		}
	}
	if _, err := cfix.CanonicalChecks(ro.Checks); err != nil {
		return statusf(http.StatusBadRequest, "%v", err)
	}
	return nil
}

// requestFilename defaults the diagnostic filename.
func requestFilename(name string) string {
	if name == "" {
		return "input.c"
	}
	return name
}

// fail maps a request error to its answer: a statusError keeps its
// status (429 with Retry-After); a contained panic is a 500 with the
// stack logged, never echoed; deadline expiry is 504, client
// disconnection 503; anything else (parse errors, unsupported
// constructs) is the client's 422.
func (t *Tier) fail(w http.ResponseWriter, label string, err error) {
	var se *statusError
	var pe *fault.PanicError
	switch {
	case errors.As(err, &se):
		if se.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		t.writeError(w, se.status, se.msg)
	case errors.As(err, &pe):
		t.panics.Add(1)
		t.log.Printf("%s: panic recovered processing %s: %v", t.name, label, pe)
		t.writeError(w, http.StatusInternalServerError, "internal error (panic recovered)")
	case errors.Is(err, context.DeadlineExceeded):
		t.writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		t.writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		t.writeError(w, http.StatusUnprocessableEntity, firstLine(err.Error()))
	}
}

// countStatus counts an error answer: 5xx as a server error, 4xx other
// than 429 (which is shedding, not a mistake) as a client error.
func (t *Tier) countStatus(status int) {
	switch {
	case status >= 500:
		t.serverErrors.Add(1)
	case status >= 400 && status != http.StatusTooManyRequests:
		t.clientErrors.Add(1)
	}
}

// writeJSON writes one JSON answer.
func (t *Tier) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		t.log.Printf("%s: writing response: %v", t.name, err)
	}
}

// writeError writes the uniform error shape and counts it.
func (t *Tier) writeError(w http.ResponseWriter, status int, msg string) {
	t.countStatus(status)
	t.writeJSON(w, status, map[string]string{"error": msg})
}

// writeReply writes a pre-rendered answer and counts it.
func (t *Tier) writeReply(w http.ResponseWriter, rp *Reply) {
	t.countStatus(rp.Status)
	ct := rp.ContentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(rp.Status)
	_, _ = w.Write(rp.Body)
}

// firstLine truncates multi-line error text (panic stacks) for clients;
// the full text goes to the log.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
