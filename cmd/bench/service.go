package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/samate"
	"repro/internal/server"
	"repro/pkg/cfix"
)

// service is cfixd as a fleet serves it: a fleet.Router in front of two
// in-process daemons, each with its own result cache, reached over
// loopback through pkg/cfix.Client by two clients that each wait for
// their reply. It is the only workload that runs HTTP/JSON, admission,
// routing and the result cache.
//
// The traffic is cmd/cfixload's with its default flags, an assumed mix
// rather than one observed in use: every request is /v1/fix on a SAMATE
// program drawn zipf(1.2) from the corpus in CWE order, and one in ten
// carries a unique comment that forces a cache miss. Like cfixload's
// workers, the clients run closed-loop, so the latency has no queueing
// in it.
//
// Under that traffic a daemon's cache grows until it reaches its bound
// and then evicts, which is where a long-running daemon sits. The bound
// is small enough for the caches to reach it within the first seconds of
// a run, so the run measures that state and the heap does not grow with
// the number of requests a run completes. Its hit ratio stays within two
// points of one that never fills.

const (
	serviceConns = 2
	cacheBytes   = 8 << 20
	zipfS        = 1.2
	mutateShare  = 0.1
	// planLen is the length of the seeded request pattern the clients
	// cycle through; a mutated request gets a unique comment per op, so
	// it misses the cache on every pass.
	planLen = 1 << 16
)

// request is one planned request.
type request struct {
	prog int
	// mut, when non-zero, makes the source unique.
	mut int
}

type serviceRun struct {
	seed  int64
	progs []samate.Program
	plan  []request

	backends []*server.Server
	servers  []*httptest.Server
	router   *fleet.Router
	client   *cfix.Client
	// direct is a daemon of its own that a traced run calls in-process,
	// without the network, to split a routed request's time.
	direct *server.Server

	// answers holds the digest of the first normalized answer to each
	// distinct request; verify compares it with the library's.
	mu      sync.Mutex
	answers map[request][32]byte
}

func setupService(seed int64) (instance, error) {
	r := &serviceRun{seed: seed, progs: samatePrograms(), answers: make(map[request][32]byte)}
	r.plan = planService(seed, len(r.progs))
	quiet := log.New(io.Discard, "", 0)
	var urls []string
	for i := 0; i < 2; i++ {
		rc, err := cfix.NewResultCache(cacheBytes, "")
		if err != nil {
			r.close()
			return nil, err
		}
		srv := server.New(server.Config{Cache: rc, Log: quiet})
		ts := httptest.NewServer(srv.Handler())
		r.backends = append(r.backends, srv)
		r.servers = append(r.servers, ts)
		urls = append(urls, ts.URL)
	}
	rt, err := fleet.NewRouter(fleet.Config{Backends: urls, Log: quiet})
	if err != nil {
		r.close()
		return nil, err
	}
	r.router = rt
	rts := httptest.NewServer(rt.Handler())
	r.servers = append(r.servers, rts)
	r.client = cfix.NewClient(rts.URL)
	r.client.MaxRetries = -1
	r.client.HTTPClient = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serviceConns, MaxIdleConnsPerHost: serviceConns,
	}}
	rc, err := cfix.NewResultCache(cacheBytes, "")
	if err != nil {
		r.close()
		return nil, err
	}
	r.direct = server.New(server.Config{Cache: rc, Log: quiet})
	return r, nil
}

// planService draws the seeded request pattern.
func planService(seed int64, nprogs int) []request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(nprogs-1))
	plan := make([]request, planLen)
	for i := range plan {
		plan[i] = request{prog: int(zipf.Uint64())}
		if rng.Float64() < mutateShare {
			plan[i].mut = 1
		}
	}
	return plan
}

// request returns op i's request.
func (r *serviceRun) request(i int) request {
	q := r.plan[i%planLen]
	if q.mut != 0 {
		q.mut = i + 1
	}
	return q
}

func (r *serviceRun) source(q request) (name, src string) {
	p := r.progs[q.prog]
	if q.mut == 0 {
		return p.ID + ".c", p.Source
	}
	return p.ID + ".c", fmt.Sprintf("%s\n// bench mutation %d-%d\n", p.Source, r.seed, q.mut)
}

// send issues q through the router and records the digest of its
// normalized answer. An answer that differs from an earlier answer to
// the same request is an error.
func (r *serviceRun) send(ctx context.Context, q request) (cached bool, err error) {
	name, src := r.source(q)
	resp, err := r.client.Fix(ctx, cfix.FixRequest{Filename: name, Source: src})
	if err != nil {
		return false, fmt.Errorf("service: %s: %w", name, err)
	}
	cached, resp.Cached = resp.Cached, false
	h, err := digest(resp)
	if err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if first, ok := r.answers[q]; !ok {
		r.answers[q] = h
	} else if first != h {
		return false, fmt.Errorf("service: %s: two answers to the same request differ", name)
	}
	return cached, nil
}

func digest(v any) ([32]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// expected computes what the library answers for a request, in the
// wire shape, without any cache.
func (r *serviceRun) expected(ctx context.Context, q request) ([32]byte, error) {
	name, src := r.source(q)
	rep, err := cfix.FixContext(ctx, name, src, cfix.RequestOptions{}.ToOptions())
	if err != nil {
		return [32]byte{}, err
	}
	return digest(cfix.NewFixResponse(name, rep))
}

func (r *serviceRun) measure(tl *tally, warm, deadline time.Time) measurement {
	ctx := context.Background()
	return closedLoop(tl, serviceConns, warm, deadline, func(_, i int) (time.Duration, error) {
		start := time.Now()
		_, err := r.send(ctx, r.request(i))
		return time.Since(start), err
	})
}

// verify compares the answer to every distinct request with the
// library's answer to the same input.
func (r *serviceRun) verify(tl *tally) {
	keys := make([]request, 0, len(r.answers))
	for q := range r.answers {
		keys = append(keys, q)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serviceConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				q := keys[i]
				want, err := r.expected(context.Background(), q)
				if err == nil && want != r.answers[q] {
					err = fmt.Errorf("service: answer for %s (mutation %d) differs from the library's", r.progs[q.prog].ID, q.mut)
				}
				tl.check(err)
			}
		}()
	}
	wg.Wait()
}

// trace replays the requests one at a time. Each goes through the router
// (the op), then through a separate daemon's handler in-process, and on
// a cache miss through the library call with a stage tracer attached:
// the router's share is routed minus direct time, the daemon's is direct
// minus library time, and the library's is split by its spans.
func (r *serviceRun) trace(tl *tally, tr *tracer, deadline time.Time) error {
	ctx := context.Background()
	router0 := r.router.Metrics()
	var direct, overhead []float64
	cached := 0
	for i := 0; time.Now().Before(deadline); i++ {
		q := r.request(i)
		var hit bool
		dr, err := tr.entry(func() (err error) {
			hit, err = r.send(ctx, q)
			return err
		})
		if !tl.check(err) {
			continue
		}
		if hit {
			cached++
		}
		dd, miss, err := r.serveDirect(q)
		if err != nil {
			return err
		}
		direct = append(direct, ms(dd))
		overhead = append(overhead, ms(dr-dd))
		tr.add(lFleet, dr-dd)
		if !miss {
			tr.add(lServer, dd)
			continue
		}
		name, src := r.source(q)
		rt := cfix.NewTracer()
		opts := cfix.RequestOptions{}.ToOptions()
		opts.Tracer = rt
		var rep *cfix.Report
		start := time.Now()
		rep, err = cfix.FixContext(ctx, name, src, opts)
		dl := time.Since(start)
		if err != nil {
			return err
		}
		tr.add(lServer, dd-dl)
		in, err := tr.frontend(name, src, nil)
		if err != nil {
			return err
		}
		tr.charge(rt.Spans(), map[string]*frontCost{name: in})
		tr.count(rep.SLR, rep.STR)
	}
	ops := float64(max(tr.ops, 1))
	router1 := r.router.Metrics()
	var rejected, served int64
	var bytes, entries float64
	for _, b := range r.backends {
		s := b.Metrics()
		rejected += s.Rejected429
		served += s.Requests.Fix + s.Requests.Lint
		bytes += float64(s.Cache.Bytes)
		entries += float64(s.Cache.Entries)
	}
	sort.Float64s(direct)
	sort.Float64s(overhead)
	tr.extra["cache.hit_ratio"] = float64(cached) / ops
	tr.extra["cache.kb_per_entry"] = ratio(bytes/1e3, entries)
	tr.extra["server.handler_p50_ms"] = percentile(direct, 50)
	tr.extra["server.rejected_frac"] = ratio(float64(rejected), float64(served))
	tr.extra["fleet.overhead_p50_ms"] = percentile(overhead, 50)
	tr.extra["fleet.retries_per_req"] = float64(router1.RetriedTotal-router0.RetriedTotal) / ops
	tr.extra["fleet.hedges_per_req"] = float64(router1.HedgedTotal-router0.HedgedTotal) / ops
	r.verify(tl)
	return nil
}

// serveDirect sends q to the in-process daemon's handler and reports
// whether its cache missed.
func (r *serviceRun) serveDirect(q request) (time.Duration, bool, error) {
	name, src := r.source(q)
	b, err := json.Marshal(cfix.FixRequest{Filename: name, Source: src})
	if err != nil {
		return 0, false, err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/fix", bytes.NewReader(b))
	rec := httptest.NewRecorder()
	start := time.Now()
	r.direct.Handler().ServeHTTP(rec, req)
	d := time.Since(start)
	var resp struct{ Cached bool }
	if rec.Code != http.StatusOK {
		return 0, false, fmt.Errorf("service: direct /v1/fix answered %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return 0, false, err
	}
	return d, !resp.Cached, nil
}

func (r *serviceRun) close() {
	if r.client != nil {
		if t, ok := r.client.HTTPClient.Transport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
	// The router stops first, listener then probers, so nothing reaches
	// a closed backend; each Close waits for its in-flight requests.
	if r.router != nil {
		r.servers[len(r.servers)-1].Close()
		r.router.Close()
		r.servers = r.servers[:len(r.servers)-1]
	}
	for _, s := range r.servers {
		s.Close()
	}
}
