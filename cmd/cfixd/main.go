// Command cfixd is the long-running fix/lint service: the paper's two
// buffer-overflow-fixing transformations and the static overflow oracle
// behind an HTTP/JSON API, with content-addressed result caching so
// re-analyzing unchanged translation units costs a cache lookup instead
// of a parse and a fixpoint solve.
//
// With -route it instead runs as the fleet router over N cfixd
// backends: /v1/fix, /v1/lint and /v1/batch consistent-hash-routed by
// content fingerprint, with health ejection, bounded retries and
// tail-latency hedging, plus the probes and /metrics (see
// internal/fleet and DESIGN.md Section 14). The router does not serve
// /v1/project or /v1/session/*: through it they answer 404.
//
// Usage:
//
//	cfixd [flags]
//
//	-addr host:port       listen address (default 127.0.0.1:8347;
//	                      port 0 picks a free port, printed on startup)
//	-cache-size n         in-memory result cache bound in MiB (default
//	                      256; 0 disables caching)
//	-cache-dir dir        persist cache entries under dir (atomic
//	                      writes, checksum-verified reads) so restarts
//	                      start warm
//	-max-inflight n       concurrently admitted analysis requests;
//	                      beyond this the daemon answers 429 +
//	                      Retry-After (default 2 per CPU; 8 per CPU in
//	                      router mode, which only shuffles bytes)
//	-max-request-bytes n  request body cap (default 16 MiB; 413 beyond)
//	-timeout d            default per-request deadline (default 30s)
//	-max-timeout d        upper clamp on requested deadlines (default 2m;
//	                      in router mode also the per-attempt upstream
//	                      timeout)
//	-budget n             default per-request solver budget; exhausted
//	                      budgets degrade conservatively, never silence
//	                      (default 0 = unlimited)
//	-backend name         default repair backend for requests that name
//	                      none: "glib" (default), "bsd", or "c11k";
//	                      unknown names exit 2
//	-j n                  batch endpoint worker pool (0 = one per CPU)
//	-drain-grace d        after SIGTERM, how long to stay alive failing
//	                      /readyz before closing the listener, so
//	                      routing tiers eject this instance first
//	                      (default 0 = close immediately)
//	-drain-timeout d      how long a SIGTERM waits for in-flight
//	                      requests before forcing connections closed
//	                      (default 30s)
//	-slow-threshold d     log requests slower than d with a per-stage
//	                      time breakdown (default 0 = disabled)
//	-pprof-addr host:port serve net/http/pprof on a separate, opt-in
//	                      listener (default off; keep it loopback-only)
//
//	-route b1,b2,...      run as the fleet router over these cfixd
//	                      backends instead of serving locally; the
//	                      cache/budget/backend/-j analysis flags are
//	                      ignored (backends own those)
//	-retries n            router: upstream attempts after the first on
//	                      connect errors and retryable statuses
//	                      (default 2; -1 disables)
//	-hedge-after d        router: duplicate a slow attempt on the next
//	                      replica after d (default 0 = disabled)
//	-probe-interval d     router: readiness-probe period per backend
//	                      (default 1s)
//
// Endpoints: POST /v1/fix, POST /v1/lint, POST /v1/batch, POST
// /v1/project, POST /v1/session/open, /v1/session/edit and
// /v1/session/close, GET /healthz, GET /readyz, GET /metrics — see
// internal/server and DESIGN.md Sections 10 and 14.
//
// On SIGTERM or SIGINT the daemon fails /readyz, waits -drain-grace,
// stops accepting connections, drains in-flight requests up to
// -drain-timeout (then forces the stragglers closed, loudly), and
// exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/pkg/cfix"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr            = flag.String("addr", "127.0.0.1:8347", "listen address (port 0 picks a free port)")
		cacheSize       = flag.Int64("cache-size", 256, "in-memory result cache bound in MiB (0 disables caching)")
		cacheDir        = flag.String("cache-dir", "", "persist cache entries under this directory")
		maxInFlight     = flag.Int("max-inflight", 0, "concurrently admitted analysis requests (0 = 2 per CPU); excess answers 429")
		maxRequestBytes = flag.Int64("max-request-bytes", 16<<20, "request body cap in bytes")
		timeout         = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout      = flag.Duration("max-timeout", 2*time.Minute, "upper clamp on requested deadlines")
		budget          = flag.Int("budget", 0, "default per-request solver budget (0 = unlimited); exhaustion degrades, never silences")
		backendName     = flag.String("backend", "glib", `default repair backend for requests that name none: "glib", "bsd", or "c11k"`)
		workers         = flag.Int("j", 0, "batch endpoint worker pool (0 = one worker per CPU; must be >= 0)")
		maxSessions     = flag.Int("max-sessions", 0, "open incremental-session cap for /v1/session/* (0 = 64); excess opens answer 429")
		drainGrace      = flag.Duration("drain-grace", 0, "after SIGTERM, keep serving while failing /readyz for this long so routers eject first")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain deadline; expired drains force connections closed")
		slowThreshold   = flag.Duration("slow-threshold", 0, "log requests slower than this with a per-stage breakdown (0 = disabled)")
		pprofAddr       = flag.String("pprof-addr", "", "serve net/http/pprof on this separate listener (empty = disabled)")

		route         = flag.String("route", "", "comma-separated cfixd backend URLs: run as the fleet router instead of serving locally")
		retries       = flag.Int("retries", 2, "router: upstream attempts after the first (-1 disables retrying)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "router: hedge a slow attempt to the next replica after this long (0 = disabled)")
		probeInterval = flag.Duration("probe-interval", time.Second, "router: readiness-probe period per backend")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "cfixd: unexpected arguments; cfixd serves over HTTP, see -h")
		return 2
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "cfixd: -j must be >= 0 (0 = one worker per CPU)")
		return 2
	}

	if err := startPprof(logger, *pprofAddr); err != nil {
		fmt.Fprintf(os.Stderr, "cfixd: %v\n", err)
		return 1
	}

	// Router mode: fix, lint and batch routed over a fleet of cfixd
	// backends. The analysis flags stay with the backends.
	if *route != "" {
		rt, err := fleet.NewRouter(fleet.Config{
			Backends:        strings.Split(*route, ","),
			MaxInFlight:     *maxInFlight,
			MaxRequestBytes: *maxRequestBytes,
			Retries:         *retries,
			HedgeAfter:      *hedgeAfter,
			UpstreamTimeout: *maxTimeout,
			ProbeInterval:   *probeInterval,
			Log:             logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfixd: -route: %v\n", err)
			return 2
		}
		defer rt.Close()
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfixd: %v\n", err)
			return 1
		}
		logger.Printf("cfixd: routing over %d backends, listening on http://%s", len(rt.Backends()), ln.Addr())
		return serveUntilSignal(logger, ln, rt.Handler(), rt.BeginDrain, *drainGrace, *drainTimeout)
	}

	defaultBackend, err := cfix.CanonicalBackend(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfixd: -backend: %v\n", err)
		return 2
	}

	var rc *cfix.ResultCache
	if *cacheSize > 0 || *cacheDir != "" {
		size := *cacheSize << 20
		if size <= 0 {
			size = 256 << 20
		}
		var err error
		rc, err = cfix.NewResultCache(size, *cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfixd: %v\n", err)
			return 1
		}
	}

	srv := server.New(server.Config{
		Cache:           rc,
		MaxInFlight:     *maxInFlight,
		MaxRequestBytes: *maxRequestBytes,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		Budget:          *budget,
		Backend:         defaultBackend,
		Workers:         *workers,
		MaxSessions:     *maxSessions,
		SlowThreshold:   *slowThreshold,
		Log:             logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfixd: %v\n", err)
		return 1
	}
	// The resolved address line is part of the interface: scripts (and
	// the CI smoke test) parse it when -addr ends in :0.
	logger.Printf("cfixd: listening on http://%s", ln.Addr())
	return serveUntilSignal(logger, ln, srv.Handler(), srv.BeginDrain, *drainGrace, *drainTimeout)
}

// startPprof serves net/http/pprof on its own opt-in listener. pprof
// stays off the API listener: profiles are never reachable through the
// address a load balancer fronts. The default mux is avoided so only
// the pprof handlers are exposed.
func startPprof(logger *log.Logger, addr string) error {
	if addr == "" {
		return nil
	}
	pln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	pprofMux := http.NewServeMux()
	pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
	pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Printf("cfixd: pprof listening on http://%s/debug/pprof/", pln.Addr())
	go func() {
		if err := http.Serve(pln, pprofMux); err != nil {
			logger.Printf("cfixd: pprof server: %v", err)
		}
	}()
	return nil
}

// serveUntilSignal serves handler on ln until SIGTERM/SIGINT, then runs
// the drain protocol shared by the single daemon and the router:
//
//  1. beginDrain flips /readyz to 503 so routing tiers and load
//     balancers stop sending new work;
//  2. after drainGrace (time for those tiers to actually probe and
//     eject this instance) the listener closes and in-flight requests
//     drain for up to drainTimeout;
//  3. a drain that outlives its deadline is forced: remaining
//     connections are closed and the expiry is logged loudly, because a
//     silent hang on shutdown is how fleets end up with zombie members.
func serveUntilSignal(logger *log.Logger, ln net.Listener, handler http.Handler, beginDrain func(), drainGrace, drainTimeout time.Duration) int {
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "cfixd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining

	beginDrain()
	if drainGrace > 0 {
		logger.Printf("cfixd: readiness withdrawn, waiting %v for routers to eject this instance", drainGrace)
		select {
		case <-time.After(drainGrace):
		case err := <-serveErr:
			fmt.Fprintf(os.Stderr, "cfixd: %v\n", err)
			return 1
		}
	}

	logger.Printf("cfixd: shutting down, draining in-flight requests (up to %v)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("cfixd: DRAIN TIMEOUT after %v: forcing remaining connections closed (%v)", drainTimeout, err)
		_ = httpSrv.Close()
		<-serveErr
		return 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "cfixd: %v\n", err)
		return 1
	}
	logger.Printf("cfixd: drained cleanly")
	return 0
}
