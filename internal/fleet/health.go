package fleet

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// backendState is one cfixd backend as the router sees it: its base
// URL, its health overlay, and its share of the per-backend /metrics
// counters. Counter semantics:
//
//	routed   — upstream attempts sent to this backend (primaries,
//	           retries and hedges all count; they are also counted in
//	           their own columns)
//	retried  — attempts that were retries of a failure elsewhere
//	hedged   — attempts launched because the previous replica was slow
//	ejected  — health ejection events (cumulative)
type backendState struct {
	url string

	ejected  atomic.Bool
	routed   atomic.Int64
	retried  atomic.Int64
	hedged   atomic.Int64
	ejection atomic.Int64
	// probeFails counts consecutive failed probes; prober-goroutine-only.
	probeFails int
}

// available reports whether the router may send this backend a request.
func (b *backendState) available() bool { return !b.ejected.Load() }

// probeBackends runs the active health loop for every backend until
// done closes. Each backend is probed on its own schedule so one slow
// probe target cannot starve the others' checks.
func (rt *Router) probeBackends() {
	for _, be := range rt.backendList {
		rt.wg.Add(1)
		go func(be *backendState) {
			defer rt.wg.Done()
			rt.probeLoop(be)
		}(be)
	}
}

// probeLoop probes one backend's /readyz forever: a healthy backend is
// probed every ProbeInterval; probeFailLimit consecutive failures eject
// it (the ring is untouched — requests simply skip it); an ejected
// backend keeps being probed with exponential backoff up to
// probeBackoffIntervals × ProbeInterval, and a single success
// reinstates it. Ejection is the only way a backend leaves rotation.
// /readyz rather than /healthz is deliberate: a draining backend fails
// readiness while still alive, so the router stops routing to it
// before its listener closes.
func (rt *Router) probeLoop(be *backendState) {
	interval := rt.conf.ProbeInterval
	wait := interval
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-timer.C:
		}
		if rt.probeOnce(be) {
			if be.ejected.Load() {
				rt.conf.Log.Printf("fleet: backend %s ready again, reinstating", be.url)
				be.ejected.Store(false)
			}
			be.probeFails = 0
			wait = interval
		} else {
			be.probeFails++
			if be.probeFails >= probeFailLimit && !be.ejected.Load() {
				rt.conf.Log.Printf("fleet: backend %s failed %d consecutive probes, ejecting",
					be.url, be.probeFails)
				be.ejected.Store(true)
				be.ejection.Add(1)
			}
			if be.ejected.Load() {
				// Exponential backoff while ejected: a dead backend is
				// probed less and less often, a restarted one is still
				// noticed within one backoff period.
				wait = min(2*wait, probeBackoffIntervals*interval)
			} else {
				wait = interval
			}
		}
		timer.Reset(wait)
	}
}

// probeOnce issues one readiness probe.
func (rt *Router) probeOnce(be *backendState) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.conf.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, be.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode == http.StatusOK
}

// normalizeBackendURL canonicalizes one -route element: scheme added
// when missing, trailing slash dropped.
func normalizeBackendURL(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimRight(s, "/")
	if s == "" {
		return s
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}
