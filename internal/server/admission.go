package server

import (
	"sync/atomic"
	"time"
)

// This file holds the service-tier building blocks shared by the single
// daemon (Server) and the fleet router (internal/fleet.Router): bounded
// admission control and the request latency histogram. Both tiers must
// shed load and report latency identically — a load balancer in front of
// either sees the same 429 + Retry-After contract and the same
// /metrics bucket labels.

// Gate is counting-semaphore admission control: it bounds concurrently
// admitted requests and sheds the excess instead of queueing it. All
// methods are safe for concurrent use.
type Gate struct {
	sem      chan struct{}
	inFlight atomic.Int64
	rejected atomic.Int64
}

// NewGate admits at most n concurrent requests; n must be positive.
func NewGate(n int) *Gate {
	return &Gate{sem: make(chan struct{}, n)}
}

// Acquire claims one in-flight slot. When it succeeds the caller must
// defer release; when it fails (the gate is full) the request has been
// counted as rejected and the caller should answer 429 + Retry-After.
func (g *Gate) Acquire() (release func(), ok bool) {
	select {
	case g.sem <- struct{}{}:
		g.inFlight.Add(1)
		return func() {
			<-g.sem
			g.inFlight.Add(-1)
		}, true
	default:
		g.rejected.Add(1)
		return nil, false
	}
}

// InFlight reports currently admitted requests.
func (g *Gate) InFlight() int64 { return g.inFlight.Load() }

// Rejected reports requests turned away since startup.
func (g *Gate) Rejected() int64 { return g.rejected.Load() }

// latencyBounds are the upper bounds of the latency histogram buckets,
// chosen to straddle the pipeline's dynamic range: a cache hit lands in
// the first bucket, a small-file solve in the middle, a pathological
// interprocedural solve at the top.
var latencyBounds = [...]time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// latencyLabels name the buckets in /metrics output, one per bound plus
// the overflow bucket.
var latencyLabels = [...]string{"le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "gt_10s"}

// LatencyHist is a fixed-bucket latency histogram whose bucket labels
// are shared by every service tier's /metrics payload. Observations and
// snapshots never block each other; counters are atomics.
type LatencyHist struct {
	buckets [len(latencyBounds) + 1]atomic.Int64
	total   atomic.Int64 // summed nanoseconds
	count   atomic.Int64
}

// Observe records one request latency.
func (h *LatencyHist) Observe(d time.Duration) {
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.total.Add(int64(d))
	h.count.Add(1)
}

// Count reports observed requests.
func (h *LatencyHist) Count() int64 { return h.count.Load() }

// Total reports the summed observed latency.
func (h *LatencyHist) Total() time.Duration { return time.Duration(h.total.Load()) }

// TotalMs reports the summed observed latency in milliseconds.
func (h *LatencyHist) TotalMs() int64 { return int64(h.Total() / time.Millisecond) }

// Buckets snapshots the histogram as the /metrics bucket-label map.
func (h *LatencyHist) Buckets() map[string]int64 {
	out := make(map[string]int64, len(latencyLabels))
	for i, label := range latencyLabels {
		out[label] = h.buckets[i].Load()
	}
	return out
}
