package fleet

import "sync/atomic"

// routerMetrics holds the router's own counters; everything atomic,
// same discipline as the single daemon's metrics. The counters every
// tier keeps (probes, admission, errors, panics, request latency) live
// on the server.Tier.
type routerMetrics struct {
	fixRequests   atomic.Int64
	lintRequests  atomic.Int64
	batchRequests atomic.Int64
	batchFiles    atomic.Int64

	routedTotal      atomic.Int64
	retriedTotal     atomic.Int64
	hedgedTotal      atomic.Int64
	collapsed        atomic.Int64
	upstreamFailures atomic.Int64
	unroutable       atomic.Int64
}

// BackendSnapshot is one backend's slice of the router's /metrics
// payload.
type BackendSnapshot struct {
	// Healthy reports the health overlay: false while ejected.
	Healthy bool `json:"healthy"`
	// Routed counts upstream attempts sent to this backend; Retried and
	// Hedged are the subsets launched as retries and hedges.
	Routed  int64 `json:"routed"`
	Retried int64 `json:"retried"`
	Hedged  int64 `json:"hedged"`
	// EjectedTotal counts health ejection events.
	EjectedTotal int64 `json:"ejected_total"`
}

// RouterSnapshot is the JSON shape of the router's GET /metrics.
type RouterSnapshot struct {
	Router        bool    `json:"router"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      struct {
		Fix     int64 `json:"fix"`
		Lint    int64 `json:"lint"`
		Batch   int64 `json:"batch"`
		Healthz int64 `json:"healthz"`
		Readyz  int64 `json:"readyz"`
	} `json:"requests"`
	BatchFiles int64 `json:"batch_files"`
	Draining   bool  `json:"draining,omitempty"`

	Rejected429     int64 `json:"rejected_429"`
	ClientErrors    int64 `json:"client_errors"`
	ServerErrors    int64 `json:"server_errors"`
	PanicsRecovered int64 `json:"panics_recovered"`
	InFlight        int64 `json:"in_flight"`

	// RoutedTotal counts upstream attempts across all backends;
	// RetriedTotal/HedgedTotal the retry and hedge subsets.
	// CollapsedTotal counts requests answered by piggybacking on an
	// identical in-flight one (fleet singleflight), UpstreamFailures
	// failed attempts (connect error, retryable status, torn body),
	// Unroutable requests that found no available backend.
	RoutedTotal      int64 `json:"routed_total"`
	RetriedTotal     int64 `json:"retried_total"`
	HedgedTotal      int64 `json:"hedged_total"`
	CollapsedTotal   int64 `json:"singleflight_collapsed"`
	UpstreamFailures int64 `json:"upstream_failures"`
	Unroutable       int64 `json:"unroutable"`

	// Backends maps each backend base URL to its health and per-backend
	// counters.
	Backends map[string]BackendSnapshot `json:"backends"`

	LatencyBuckets map[string]int64 `json:"latency_buckets"`
	LatencyTotalMs int64            `json:"latency_total_ms"`
}

// snapshot reads every counter.
func (rt *Router) snapshot() RouterSnapshot {
	tc := rt.Counts()
	var s RouterSnapshot
	s.Router = true
	s.UptimeSeconds = tc.UptimeSeconds
	s.Requests.Fix = rt.m.fixRequests.Load()
	s.Requests.Lint = rt.m.lintRequests.Load()
	s.Requests.Batch = rt.m.batchRequests.Load()
	s.Requests.Healthz = tc.Healthz
	s.Requests.Readyz = tc.Readyz
	s.BatchFiles = rt.m.batchFiles.Load()
	s.Draining = tc.Draining
	s.Rejected429 = tc.Rejected429
	s.ClientErrors = tc.ClientErrors
	s.ServerErrors = tc.ServerErrors
	s.PanicsRecovered = tc.Panics
	s.InFlight = tc.InFlight
	s.RoutedTotal = rt.m.routedTotal.Load()
	s.RetriedTotal = rt.m.retriedTotal.Load()
	s.HedgedTotal = rt.m.hedgedTotal.Load()
	s.CollapsedTotal = rt.m.collapsed.Load()
	s.UpstreamFailures = rt.m.upstreamFailures.Load()
	s.Unroutable = rt.m.unroutable.Load()
	s.Backends = make(map[string]BackendSnapshot, len(rt.backendList))
	for _, be := range rt.backendList {
		s.Backends[be.url] = BackendSnapshot{
			Healthy:      be.available(),
			Routed:       be.routed.Load(),
			Retried:      be.retried.Load(),
			Hedged:       be.hedged.Load(),
			EjectedTotal: be.ejection.Load(),
		}
	}
	s.LatencyBuckets = tc.LatencyBuckets
	s.LatencyTotalMs = tc.LatencyTotalMs
	return s
}
