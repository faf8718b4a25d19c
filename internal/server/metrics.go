package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/cfix"
)

// metrics holds the daemon's expvar-style counters. Everything is an
// atomic so the hot path never takes a lock; /metrics reads a snapshot.
// The counters every tier keeps (probes, admission, errors, panics,
// request latency) live on the Tier.
type metrics struct {
	fixRequests   atomic.Int64
	lintRequests  atomic.Int64
	batchRequests atomic.Int64
	batchFiles    atomic.Int64
	// projectRequests/projectFiles count /v1/project batches and the
	// translation units they carried.
	projectRequests atomic.Int64
	projectFiles    atomic.Int64

	// intFindings counts integer-overflow oracle findings
	// (CWE-190/191/680) across all served lint and fix responses.
	intFindings atomic.Int64

	// Incremental-session accounting (/v1/session/*): opens requested,
	// edit scripts applied, and the per-function work breakdown summed
	// over every applied edit. The open-session gauge itself is read
	// from the registry at snapshot time.
	sessionOpens           atomic.Int64
	sessionEdits           atomic.Int64
	sessionFuncsReanalyzed atomic.Int64
	sessionFuncsReused     atomic.Int64

	degraded atomic.Int64 // responses carrying a degradation note

	// stages holds one latency histogram per pipeline stage name, fed
	// from each request's stage spans. The map is guarded by stageMu
	// (new stage names appear only a handful of times per process
	// lifetime); the histogram counters themselves are atomics, so
	// observing a span never blocks a /metrics scrape and counters stay
	// monotonic under concurrent scrapes, drains and panics.
	stageMu sync.RWMutex
	stages  map[string]*stageHist

	// backends counts transforming requests (fix, batch-fix) per repair
	// dialect, keyed by the canonical backend name. Same locking shape
	// as stages: the map only grows by registered-backend names, the
	// counters are atomics.
	backendMu sync.RWMutex
	backends  map[string]*atomic.Int64
}

// observeBackend counts one transforming request against its dialect.
func (m *metrics) observeBackend(name string) {
	m.backendMu.RLock()
	c := m.backends[name]
	m.backendMu.RUnlock()
	if c == nil {
		m.backendMu.Lock()
		if m.backends == nil {
			m.backends = make(map[string]*atomic.Int64)
		}
		if c = m.backends[name]; c == nil {
			c = new(atomic.Int64)
			m.backends[name] = c
		}
		m.backendMu.Unlock()
	}
	c.Add(1)
}

// stageHist is one per-stage latency histogram plus its degraded-span
// count. All fields are atomics: writers and the /metrics reader never
// contend.
type stageHist struct {
	LatencyHist
	degraded atomic.Int64
}

// observeStage records one stage span into its histogram.
func (m *metrics) observeStage(name string, d time.Duration, degraded bool) {
	m.stageMu.RLock()
	h := m.stages[name]
	m.stageMu.RUnlock()
	if h == nil {
		m.stageMu.Lock()
		if m.stages == nil {
			m.stages = make(map[string]*stageHist)
		}
		if h = m.stages[name]; h == nil {
			h = new(stageHist)
			m.stages[name] = h
		}
		m.stageMu.Unlock()
	}
	h.Observe(d)
	if degraded {
		h.degraded.Add(1)
	}
}

// observeReport counts one response's degradation notes and the
// integer-overflow oracle's findings among its findings.
func (m *metrics) observeReport(degraded []string, fs []cfix.Finding) {
	if len(degraded) > 0 {
		m.degraded.Add(1)
	}
	var n int64
	for _, f := range fs {
		switch f.CWE {
		case 190, 191, 680:
			n++
		}
	}
	if n > 0 {
		m.intFindings.Add(n)
	}
}

// Snapshot is the JSON shape of GET /metrics: every counter the daemon
// exports, read atomically. Field order is the document order.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts admitted requests per endpoint; BatchFiles counts
	// the translation units inside admitted batch requests.
	Requests struct {
		Fix     int64 `json:"fix"`
		Lint    int64 `json:"lint"`
		Batch   int64 `json:"batch"`
		Project int64 `json:"project"`
		Healthz int64 `json:"healthz"`
		Readyz  int64 `json:"readyz"`
	} `json:"requests"`
	// Draining reports that graceful shutdown has begun: /readyz is
	// answering 503 and the listener will close once in-flight requests
	// finish (or the drain deadline forces it).
	Draining   bool  `json:"draining,omitempty"`
	BatchFiles int64 `json:"batch_files"`
	// ProjectFiles counts translation units processed via /v1/project.
	ProjectFiles int64 `json:"project_files"`
	// Rejected429 counts requests turned away by admission control.
	Rejected429  int64 `json:"rejected_429"`
	ClientErrors int64 `json:"client_errors"`
	ServerErrors int64 `json:"server_errors"`
	// PanicsRecovered counts contained crashes: each one was a request
	// that returned 500 with its stack logged instead of killing the
	// daemon.
	PanicsRecovered int64 `json:"panics_recovered"`
	// DegradedResponses counts responses whose result carried at least
	// one degradation note (budget exhaustion, skipped stage).
	DegradedResponses int64 `json:"degraded_responses"`
	// IntflowFindings counts integer-overflow oracle findings
	// (CWE-190/191/680) across all served lint and fix responses —
	// the demand signal for the `-checks=int` oracle.
	IntflowFindings int64 `json:"intflow_findings"`
	InFlight        int64 `json:"in_flight"`
	// Sessions reports the incremental-session endpoints' counters:
	// the open-session gauge plus cumulative edit work. FuncsReused
	// versus FuncsReanalyzed is the daemon-level measure of how much
	// re-derivation the memoized sessions avoided.
	Sessions struct {
		Open            int64 `json:"sessions_open"`
		Opens           int64 `json:"opens_total"`
		EditsApplied    int64 `json:"edits_applied"`
		FuncsReanalyzed int64 `json:"funcs_reanalyzed"`
		FuncsReused     int64 `json:"funcs_reused"`
	} `json:"sessions"`
	// Cache reports the result cache's counters; absent when the daemon
	// runs uncached.
	Cache *cfix.CacheStats `json:"cache,omitempty"`
	// LatencyBuckets is a cumulative-style histogram of served request
	// latencies (bucket label -> count), plus the summed milliseconds.
	LatencyBuckets map[string]int64 `json:"latency_buckets"`
	LatencyTotalMs int64            `json:"latency_total_ms"`
	// BackendRequests counts transforming requests per repair dialect
	// (canonical backend name -> count); empty until the first fix
	// request.
	BackendRequests map[string]int64 `json:"backend_requests,omitempty"`
	// Stages maps each pipeline stage name (parse, typecheck, slr, ...)
	// to its own latency histogram, aggregated from the stage spans of
	// every served request. Empty until the first analysis request.
	Stages map[string]StageSnapshot `json:"stages,omitempty"`
}

// StageSnapshot is one stage's slice of the /metrics payload.
type StageSnapshot struct {
	Count   int64 `json:"count"`
	TotalUs int64 `json:"total_us"`
	// Degraded counts spans that carried a degradation attribute (budget
	// exhaustion, skipped stage).
	Degraded int64            `json:"degraded,omitempty"`
	Buckets  map[string]int64 `json:"latency_buckets"`
}

// snapshot reads every counter.
func (m *metrics) snapshot(tc TierCounts, cache *cfix.ResultCache, sessions *sessionRegistry) Snapshot {
	var s Snapshot
	s.UptimeSeconds = tc.UptimeSeconds
	s.Requests.Fix = m.fixRequests.Load()
	s.Requests.Lint = m.lintRequests.Load()
	s.Requests.Batch = m.batchRequests.Load()
	s.Requests.Project = m.projectRequests.Load()
	s.Requests.Healthz = tc.Healthz
	s.Requests.Readyz = tc.Readyz
	s.Draining = tc.Draining
	s.BatchFiles = m.batchFiles.Load()
	s.ProjectFiles = m.projectFiles.Load()
	s.Rejected429 = tc.Rejected429
	s.ClientErrors = tc.ClientErrors
	s.ServerErrors = tc.ServerErrors
	s.PanicsRecovered = tc.Panics
	s.DegradedResponses = m.degraded.Load()
	s.IntflowFindings = m.intFindings.Load()
	s.InFlight = tc.InFlight
	s.Sessions.Open = sessions.count()
	s.Sessions.Opens = m.sessionOpens.Load()
	s.Sessions.EditsApplied = m.sessionEdits.Load()
	s.Sessions.FuncsReanalyzed = m.sessionFuncsReanalyzed.Load()
	s.Sessions.FuncsReused = m.sessionFuncsReused.Load()
	if cache != nil {
		st := cache.Stats()
		s.Cache = &st
	}
	s.LatencyBuckets = tc.LatencyBuckets
	s.LatencyTotalMs = tc.LatencyTotalMs
	m.backendMu.RLock()
	if len(m.backends) > 0 {
		s.BackendRequests = make(map[string]int64, len(m.backends))
		for name, c := range m.backends {
			s.BackendRequests[name] = c.Load()
		}
	}
	m.backendMu.RUnlock()
	m.stageMu.RLock()
	if len(m.stages) > 0 {
		s.Stages = make(map[string]StageSnapshot, len(m.stages))
		for name, h := range m.stages {
			s.Stages[name] = StageSnapshot{
				Count:    h.Count(),
				TotalUs:  int64(h.Total() / time.Microsecond),
				Degraded: h.degraded.Load(),
				Buckets:  h.Buckets(),
			}
		}
	}
	m.stageMu.RUnlock()
	return s
}
