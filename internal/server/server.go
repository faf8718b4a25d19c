// Package server implements cfixd's HTTP/JSON API: the long-running
// fix/lint service layered directly on the ctx-first pipeline (core.Fix
// via pkg/cfix; a lint run is a fix run with both repairs off) and the
// bounded worker pool, with content-addressed result caching, admission
// control, per-request deadlines and solver budgets, and expvar-style
// metrics.
//
// Endpoints:
//
//	POST /v1/fix    transform one translation unit (cfix.FixRequest ->
//	                cfix.FixResponse; Source is byte-identical to a
//	                one-shot `cfix` run on the same input/options)
//	POST /v1/lint   statically diagnose one unit without transforming it
//	POST /v1/batch  process many units through the worker pool in one
//	                request; per-file fault containment, input order
//	POST /v1/project  process a whole project (sources inline): built-in
//	                preprocessing, cross-file seeding, repairs remapped
//	                into the original (pre-expansion) text
//	POST /v1/session/open, /v1/session/edit, /v1/session/close
//	                incremental editor sessions (see session.go)
//	GET  /healthz   liveness (never queued behind analysis work)
//	GET  /readyz    readiness: 503 once drain begins
//	GET  /metrics   counters: requests, cache hits/misses/evictions,
//	                degradations, panics recovered, in-flight, latency
//	                histogram, per-stage histograms
//
// Every POST endpoint runs down one request path (tier.go): admission,
// the per-request tracer and its observation, strict decoding under the
// body cap, the endpoint's checks, backend resolution and the effective
// options, then the endpoint's own run-and-render step. The fleet router
// (internal/fleet) mounts its endpoints on the same path.
//
// Failure model: a panic inside a request's pipeline is contained by the
// per-file fault boundary and surfaces here as a *fault.PanicError — the
// daemon answers 500, logs the recovered stack, and keeps serving. A
// request that exceeds its deadline answers 504. Overload answers 429
// with Retry-After so load balancers shed instead of queueing. Oversized
// bodies answer 413 before any parsing happens.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/pkg/cfix"
)

// Config tunes the service; the zero value serves with sane defaults.
type Config struct {
	// Cache, when non-nil, answers repeated identical requests without
	// re-running the pipeline and collapses concurrent identical
	// requests into one computation.
	Cache *cfix.ResultCache
	// MaxInFlight bounds concurrently admitted analysis requests (every
	// POST endpoint but session close); further requests are rejected
	// with 429 + Retry-After instead of queueing unboundedly. <= 0 means
	// 2 per CPU.
	MaxInFlight int
	// MaxRequestBytes caps a request body; larger bodies answer 413.
	// <= 0 means 16 MiB.
	MaxRequestBytes int64
	// DefaultTimeout applies when a request does not set one;
	// MaxTimeout clamps what a request may ask for. <= 0 means 30s and
	// 2m respectively.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Budget is the per-request solver budget applied when the request
	// does not set one; 0 means unlimited (the deadline still bounds
	// wall clock).
	Budget int
	// Backend is the repair dialect applied when a request names none
	// ("glib", "bsd", or "c11k"; empty means glib). Requests may still
	// select any registered backend explicitly; unknown names in either
	// place answer 400.
	Backend string
	// Workers bounds the batch endpoint's worker pool; <= 0 means one
	// per CPU.
	Workers int
	// MaxSessions bounds the incremental-session table (/v1/session/*);
	// opens beyond it answer 429 until a session closes. <= 0 means 64.
	MaxSessions int
	// SlowThreshold, when positive, logs every analysis request slower
	// than this with a per-stage time breakdown (cfixd -slow-threshold).
	SlowThreshold time.Duration
	// Log receives request errors and recovered panic stacks; nil means
	// the process default logger.
	Log *log.Logger
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.NumCPU()
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 16 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Server is the cfixd request handler: the daemon's endpoints mounted
// on a Tier. Create with New, mount with Handler, drain with BeginDrain
// + http.Server.Shutdown.
type Server struct {
	*Tier
	conf     Config
	m        metrics
	sessions *sessionRegistry
}

// New builds a server from the configuration.
func New(conf Config) *Server {
	conf = conf.withDefaults()
	s := &Server{conf: conf, sessions: newSessionRegistry(conf.MaxSessions)}
	s.Tier = NewTier(TierConfig{
		Name:            "cfixd",
		Log:             conf.Log,
		Gate:            NewGate(conf.MaxInFlight),
		MaxRequestBytes: conf.MaxRequestBytes,
		Metrics:         func() any { return s.Metrics() },
	})
	s.observe = s.observeRequest
	s.resolve = s.resolveOptions
	Handle(s.Tier, "/v1/fix", Endpoint[cfix.FixRequest]{
		Count: &s.m.fixRequests, Check: CheckUnit, Run: s.fix})
	Handle(s.Tier, "/v1/lint", Endpoint[cfix.LintRequest]{
		Count: &s.m.lintRequests, Check: checkLint, Run: s.lint})
	Handle(s.Tier, "/v1/batch", Endpoint[cfix.BatchRequest]{
		Count: &s.m.batchRequests, Check: CheckBatch, Run: s.batch})
	Handle(s.Tier, "/v1/project", Endpoint[cfix.ProjectRequest]{
		Count: &s.m.projectRequests, Check: checkProject, Run: s.project})
	Handle(s.Tier, "/v1/session/open", Endpoint[cfix.SessionOpenRequest]{
		Count: &s.m.sessionOpens, Check: s.checkSessionOpen, Run: s.openSession})
	Handle(s.Tier, "/v1/session/edit", Endpoint[cfix.SessionEditRequest]{
		Run: s.editSession})
	Handle(s.Tier, "/v1/session/close", Endpoint[cfix.SessionCloseRequest]{
		Unadmitted: true, Run: s.closeSession})
	return s
}

// Metrics returns a snapshot of the daemon's counters (the /metrics
// payload), for embedding and tests.
func (s *Server) Metrics() Snapshot {
	return s.m.snapshot(s.Counts(), s.conf.Cache, s.sessions)
}

// resolveOptions applies the daemon's defaults to a request's wire
// options: the backend (the configured one when the request names none;
// an unknown name answers 400 before any parsing or solving), the
// deadline clamp, the default budget, the cache, and the request's
// tracer.
func (s *Server) resolveOptions(c *Call, ro cfix.RequestOptions) error {
	name := ro.Backend
	if name == "" {
		name = s.conf.Backend
	}
	be, err := cfix.CanonicalBackend(name)
	if err != nil {
		return statusf(http.StatusBadRequest, "%v", err)
	}
	opts := ro.ToOptions()
	switch {
	case opts.Timeout <= 0:
		opts.Timeout = s.conf.DefaultTimeout
	case opts.Timeout > s.conf.MaxTimeout:
		opts.Timeout = s.conf.MaxTimeout
	}
	if opts.Budget == 0 {
		opts.Budget = s.conf.Budget
	}
	opts.Backend = be
	opts.Cache = s.conf.Cache
	opts.Tracer = c.Tracer
	c.Options = opts
	return nil
}

// checkLint validates a lint request as a one-unit request. Lint never
// rewrites, but an unknown backend is still the client's mistake.
func checkLint(req *cfix.LintRequest) (string, *cfix.RequestOptions, error) {
	return CheckUnit((*cfix.FixRequest)(req))
}

// checkProject validates a project request: it needs files and valid
// options (see checkOptions).
func checkProject(req *cfix.ProjectRequest) (string, *cfix.RequestOptions, error) {
	if len(req.Files) == 0 {
		return "", nil, statusf(http.StatusBadRequest, "missing files")
	}
	if err := checkOptions(req.Options); err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("%d units", len(req.Files)), &req.Options, nil
}

func (s *Server) fix(ctx context.Context, c *Call, req *cfix.FixRequest) (any, error) {
	s.m.observeBackend(c.Options.Backend)
	rep, err := cfix.FixContext(ctx, req.Filename, req.Source, c.Options)
	if err != nil {
		return nil, err
	}
	s.m.observeReport(rep.Degraded, rep.Findings)
	return cfix.NewFixResponse(req.Filename, rep), nil
}

func (s *Server) lint(ctx context.Context, c *Call, req *cfix.LintRequest) (any, error) {
	rep, err := cfix.Analyze(ctx, req.Filename, req.Source, c.Options)
	if err != nil {
		return nil, err
	}
	s.m.observeReport(rep.Degraded, rep.Findings)
	return cfix.NewLintResponse(req.Filename, rep), nil
}

// batch runs a batch's members through the worker pool. Each member's
// failure, a contained panic included, is its own Error field; the
// batch itself answers 200.
func (s *Server) batch(ctx context.Context, c *Call, req *cfix.BatchRequest) (any, error) {
	if !req.Lint {
		s.m.observeBackend(c.Options.Backend)
	}
	s.m.batchFiles.Add(int64(len(req.Files)))
	results, todo := SplitBatch(req)
	inputs := make([]cfix.FileInput, len(todo))
	for j, i := range todo {
		inputs[j] = cfix.FileInput{Filename: req.Files[i].Filename, Source: req.Files[i].Source}
	}
	run := cfix.FixAllContext
	if req.Lint {
		run = cfix.AnalyzeAllContext
	}
	for j, out := range run(ctx, inputs, c.Options, s.conf.Workers) {
		results[todo[j]] = s.batchResult(out.Filename, out.Err, func() cfix.BatchResult {
			res := cfix.BatchResult{Filename: out.Filename}
			if req.Lint {
				lr := cfix.NewLintResponse(out.Filename, out.Report)
				res.Lint = &lr
			} else {
				fr := cfix.NewFixResponse(out.Filename, out.Report)
				res.Fix = &fr
			}
			return res
		})
		if out.Report != nil {
			s.m.observeReport(out.Report.Degraded, out.Report.Findings)
		}
	}
	return cfix.BatchResponse{Results: results}, nil
}

// project processes a whole project shipped inline: every unit is
// preprocessed by the built-in preprocessor, cross-file call facts are
// linked, and fixes land in the original (pre-expansion) text. Per-file
// failures are contained in the response; the endpoint only 4xx/5xxes
// for malformed requests and whole-project faults.
func (s *Server) project(ctx context.Context, c *Call, req *cfix.ProjectRequest) (any, error) {
	if !req.LintOnly {
		s.m.observeBackend(c.Options.Backend)
	}
	s.m.projectFiles.Add(int64(len(req.Files)))
	run := cfix.FixProjectInMemory
	if req.LintOnly {
		run = cfix.AnalyzeProjectInMemory
	}
	rep, err := run(ctx, req.Files, req.Headers, c.Options)
	if err != nil {
		return nil, err
	}
	for _, out := range rep.Files {
		if out.Fix != nil {
			s.m.observeReport(out.Fix.Degraded, out.Fix.Findings)
		}
	}
	return cfix.NewProjectResponse(rep, req.LintOnly), nil
}

// observeRequest folds one finished request into the daemon's metrics:
// one per-stage histogram entry per recorded span and, when the request
// ran longer than SlowThreshold, a slow-request log line with the
// per-stage breakdown. The request path calls it for every request,
// also one that failed or panicked midway.
func (s *Server) observeRequest(path, label string, spans []obs.Span, elapsed time.Duration) {
	for _, sp := range spans {
		s.m.observeStage(sp.Name, sp.Dur, sp.Degraded())
	}
	if thr := s.conf.SlowThreshold; thr > 0 && elapsed >= thr {
		s.conf.Log.Printf("cfixd: slow request %s %s took %s (threshold %s); stages: %s",
			path, label, elapsed.Round(time.Microsecond), thr, slowBreakdown(obs.SpanStats(spans)))
	}
}

// slowBreakdown renders the dominant stages of a slow request compactly:
// "slr 12ms/1, pointsto 8ms/2, ..." (self time / span count), largest
// self time first, capped at five stages.
func slowBreakdown(stats []cfix.StageStat) string {
	if len(stats) == 0 {
		return "(no spans recorded)"
	}
	const maxStages = 5
	parts := make([]string, 0, maxStages+1)
	for i, st := range stats {
		if i == maxStages {
			parts = append(parts, fmt.Sprintf("+%d more", len(stats)-maxStages))
			break
		}
		parts = append(parts, fmt.Sprintf("%s %s/%d", st.Name, st.Self.Round(time.Microsecond), st.Count))
	}
	return strings.Join(parts, ", ")
}

// batchResult folds one per-file outcome: a contained failure becomes
// the file's Error field (panics logged and counted), a success is
// rendered by render.
func (s *Server) batchResult(filename string, err error, render func() cfix.BatchResult) cfix.BatchResult {
	if err == nil {
		return render()
	}
	var pe *fault.PanicError
	if errors.As(err, &pe) {
		s.panics.Add(1)
		s.conf.Log.Printf("cfixd: panic contained in batch file %s: %v", filename, pe)
		return cfix.BatchResult{Filename: filename, Error: "panic contained: " + FirstLine(pe.Error())}
	}
	return cfix.BatchResult{Filename: filename, Error: err.Error()}
}
