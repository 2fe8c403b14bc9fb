// Command webracerd is the long-running race-detection service: the
// one-shot cmd/webracer pipeline packaged behind a REST API with a shared
// worker pool, a bounded job queue and a content-addressed result cache.
//
// Usage:
//
//	webracerd [flags]
//
//	-addr :8077          listen address
//	-workers N           concurrent job workers (default: all cores)
//	-queue N             bounded job queue depth (default 64; full → 429)
//	-cache-bytes N       result-cache byte budget (default 64 MiB)
//	-sweep-workers N     per-job parallelism of sweep endpoints (default 1)
//	-default-timeout D   per-job wall budget when the request sets none (default 30s)
//	-max-timeout D       clamp on requested budgets (default 2m; 0 = no clamp)
//	-max-body N          request-body byte limit (default 8 MiB; over → 413)
//	-store-dir DIR       persist results to DIR: atomic checksummed writes,
//	                     corrupt entries quarantined and recovered around at boot
//	-access-log DEST     one structured JSON line per request ("-": stdout,
//	                     else a file path, appended); every line carries the
//	                     request's X-Webracer-Request-Id
//	-v                   log every job admission and completion
//
// Router mode — set -backends to turn this process into the cluster's
// front door instead of a worker:
//
//	-backends URLS       comma-separated backend base URLs; job keys are
//	                     consistent-hashed across them, with retries,
//	                     circuit breakers and local-execution fallback
//	-request-timeout D   per-forward-attempt timeout (default 90s)
//	-max-attempts N      forward attempts before falling back to local (default 3)
//	-breaker-failures N  consecutive failures that open a backend's breaker (default 5)
//	-breaker-cooldown D  open-breaker rejection window (default 5s)
//	-health-interval D   active /healthz probe period (default 2s; 0 disables)
//
// Endpoints: POST /v1/detect, /v1/sweep, /v1/faultsweep; GET /v1/jobs/{id},
// /v1/backends (router mode), /metrics, /progress, /healthz. See
// OPERATIONS.md for the full reference with curl-able examples and the
// "Running a cluster" runbook.
//
// SIGTERM/SIGINT drains gracefully: new submissions get 503, queued and
// in-flight jobs finish, then the final metrics snapshot (cache hits,
// misses, evictions, job counts) is flushed to stderr and the process
// exits 0. A second signal exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webracer/internal/serve"
)

func main() { os.Exit(run()) }

// run is main with an exit code so deferred cleanups always execute.
func run() int {
	var (
		addr         = flag.String("addr", ":8077", "listen address")
		workers      = flag.Int("workers", 0, "concurrent job workers (0: all cores)")
		queue        = flag.Int("queue", 64, "job queue depth; a full queue refuses with 429 + Retry-After")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "result-cache byte budget (LRU eviction)")
		sweepWorkers = flag.Int("sweep-workers", 1, "per-job parallelism of sweep endpoints (output is identical at any value)")
		defTimeout   = flag.Duration("default-timeout", 30*time.Second, "per-job wall budget when the request sets none")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "clamp on requested per-job budgets (0: no clamp)")
		maxBody      = flag.Int64("max-body", 8<<20, "request-body byte limit (over: 413)")
		storeDir     = flag.String("store-dir", "", "persist results to this directory (atomic, checksummed; survives restarts)")
		accessLog    = flag.String("access-log", "", "structured JSON access log: \"-\" for stdout, else a file path (appended); empty disables")
		verbose      = flag.Bool("v", false, "log request-level detail")

		backends        = flag.String("backends", "", "comma-separated backend URLs: run as the cluster router instead of a worker")
		reqTimeout      = flag.Duration("request-timeout", 90*time.Second, "router: per-forward-attempt timeout")
		maxAttempts     = flag.Int("max-attempts", 3, "router: forward attempts before local fallback")
		breakerFailures = flag.Int("breaker-failures", 5, "router: consecutive failures that open a backend's circuit breaker (negative: disable breakers)")
		breakerCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "router: how long an open breaker rejects a backend")
		healthInterval  = flag.Duration("health-interval", 2*time.Second, "router: active /healthz probe period (0: disable)")
	)
	flag.Parse()

	var accessW io.Writer
	if *accessLog == "-" {
		accessW = os.Stdout
	} else if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webracerd:", err)
			return 2
		}
		defer f.Close()
		accessW = f
	}
	s := serve.NewServer(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheBytes:     *cacheBytes,
		SweepWorkers:   *sweepWorkers,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
		StoreDir:       *storeDir,
		AccessLog:      accessW,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webracerd:", err)
		return 2
	}
	var rt *serve.Router
	handler := s.Handler()
	if *backends != "" {
		rt = serve.NewRouter(s, serve.RouterConfig{
			Backends:        splitBackends(*backends),
			RequestTimeout:  *reqTimeout,
			Attempts:        *maxAttempts,
			BreakerFailures: *breakerFailures,
			BreakerCooldown: *breakerCooldown,
			HealthInterval:  *healthInterval,
		})
		handler = rt.Handler()
	}
	if *verbose {
		handler = logRequests(handler)
	}
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = httpSrv.Serve(ln) }()
	mode := "serving"
	if rt != nil {
		mode = fmt.Sprintf("routing across %d backends on", len(splitBackends(*backends)))
	}
	fmt.Fprintf(os.Stderr, "webracerd: %s http://%s (POST /v1/detect, /v1/sweep, /v1/faultsweep; GET /v1/jobs/{id}, /metrics, /progress)\n",
		mode, ln.Addr())

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "webracerd: %s — draining (in-flight jobs finish; signal again to abort)\n", sig)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "webracerd: second signal — aborting")
		os.Exit(130)
	}()

	if rt != nil {
		rt.Close()
	}
	if err := s.Drain(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "webracerd: drain:", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)

	// Flush the final service counters — the cache/queue story of this
	// process's lifetime — so operators see them without scraping.
	fmt.Fprintln(os.Stderr, "webracerd: final metrics:")
	if err := s.Metrics().WriteJSON(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "webracerd:", err)
		return 1
	}
	return 0
}

// splitBackends parses the -backends flag, dropping empty segments so a
// trailing comma doesn't become a phantom backend.
func splitBackends(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// logRequests wraps the service handler with one stderr line per request.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		fmt.Fprintf(os.Stderr, "webracerd: %s %s (%s)\n", r.Method, r.URL.Path, time.Since(start).Truncate(time.Millisecond))
	})
}
