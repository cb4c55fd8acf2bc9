// Command safespec-worker executes sweep jobs leased from a grid
// coordinator — a persistent safespec-coordinator process, or the one
// embedded in `safespec-bench -serve ADDR`. Several workers may serve one
// coordinator; each runs -parallel concurrent lease loops and simulates
// jobs in-process, optionally behind a content-addressed result cache
// shared with other workers on the same filesystem.
//
// Usage:
//
//	safespec-worker -coordinator http://host:9090 -token SECRET
//	safespec-worker -coordinator https://host:9443 -token SECRET -tls-ca cert.pem
//	safespec-worker -coordinator http://host:9090 -parallel 4 -cache-dir .cache
//	safespec-worker -coordinator http://host:9090 -max-idle 1m   # exit when orphaned
//	safespec-worker -coordinator http://host:9090 -pprof 127.0.0.1:6061  # pprof + /metrics
//
// The worker polls until interrupted (or the coordinator stays unreachable
// past -max-idle): an idle worker is a healthy worker waiting for the next
// sweep. With -pprof set, the same listener serves Prometheus metrics at
// /metrics: lease/completion/failure counters, lease round-trip latency,
// per-job simulate-time histograms, result-cache hits/misses, and
// contained incidents by kind.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"safespec/internal/grid"
	"safespec/internal/obs"
	"safespec/internal/pprofserve"
	"safespec/internal/resultcache"
	"safespec/internal/sweep"

	// Registers the attack kernels as named benches so leased jobs for
	// security cells (e.g. smt-btb-v2) resolve on a bare worker.
	_ "safespec/internal/attacks"
)

// config carries the flag surface (kept as a struct so tests can drive run
// directly).
type config struct {
	coordinator string
	token       string
	tlsCA       string
	id          string
	parallel    int
	cacheDir    string
	poll        time.Duration
	maxIdle     time.Duration
	quiet       bool
	logLevel    string
	logFormat   string
	pprofAddr   string
	memLimitMB  int
}

func main() {
	var c config
	flag.StringVar(&c.coordinator, "coordinator", "", "base URL of the grid coordinator (required; https:// needs a trusted or -tls-ca cert)")
	flag.StringVar(&c.token, "token", os.Getenv("SAFESPEC_TOKEN"), "coordinator bearer token (default $SAFESPEC_TOKEN)")
	flag.StringVar(&c.tlsCA, "tls-ca", "", "PEM bundle to trust for an https:// coordinator (e.g. its self-signed -tls-cert); empty uses the system roots")
	flag.StringVar(&c.id, "id", "", "worker name used in lease ids and logs (default host-pid)")
	flag.IntVar(&c.parallel, "parallel", 0, "concurrent lease loops (0 = GOMAXPROCS)")
	flag.StringVar(&c.cacheDir, "cache-dir", "", "content-addressed result cache directory")
	flag.DurationVar(&c.poll, "poll", 250*time.Millisecond, "idle sleep between lease attempts")
	flag.DurationVar(&c.maxIdle, "max-idle", 0, "exit after the coordinator has been unreachable this long (0 = keep polling)")
	flag.BoolVar(&c.quiet, "quiet", false, "suppress per-job progress lines (same as -log-level warn)")
	flag.StringVar(&c.logLevel, "log-level", "info", "log level: debug|info|warn|error")
	flag.StringVar(&c.logFormat, "log-format", "text", "log format: text|json")
	flag.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof, Prometheus /metrics and the /healthz and /readyz probes on this address (e.g. 127.0.0.1:6061)")
	flag.IntVar(&c.memLimitMB, "mem-limit-mb", 0, "soft heap limit in MiB: a job running while the process heap exceeds it is contained as a memory incident (0 = off)")
	flag.Parse()

	if c.quiet && c.logLevel == "info" {
		c.logLevel = "warn"
	}
	log, err := obs.NewLogger(os.Stderr, c.logLevel, c.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "safespec-worker:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, c, log); err != nil {
		log.Error("worker exiting", "err", err.Error())
		os.Exit(1)
	}
}

func run(ctx context.Context, c config, log *slog.Logger) error {
	if c.coordinator == "" {
		return fmt.Errorf("-coordinator is required (e.g. -coordinator http://127.0.0.1:9090)")
	}
	client, err := grid.NewHTTPClient(c.tlsCA, 30*time.Second)
	if err != nil {
		return err
	}
	if c.id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		c.id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	reg := obs.NewRegistry()
	metrics := grid.NewWorkerMetrics(reg)

	var exec sweep.Executor
	if c.cacheDir != "" {
		cache, err := resultcache.Open(c.cacheDir)
		if err != nil {
			return err
		}
		defer func() { log.Info("result cache summary", "cache", cache.String()) }()
		// Mirror the cache's counters into /metrics at scrape time: the
		// cache already counts under its own lock, the registry copy is
		// just the exposition view.
		reg.OnCollect(func() {
			st := cache.Stats()
			metrics.CacheHits.Set(st.Hits)
			metrics.CacheMisses.Set(st.Misses)
		})
		exec = resultcache.NewExecutor(cache, nil)
	}

	w := &grid.Worker{
		Coordinator: c.coordinator,
		Token:       c.token,
		ID:          c.id,
		Parallel:    c.parallel,
		Exec:        exec,
		Poll:        c.poll,
		MaxIdle:     c.maxIdle,
		MemLimit:    int64(c.memLimitMB) << 20,
		Client:      client,
		Log:         log,
		Metrics:     metrics,
	}

	if c.pprofAddr != "" {
		ops := http.NewServeMux()
		ops.Handle("GET /metrics", reg.Handler())
		// /healthz is liveness (the process is up); /readyz is readiness —
		// the last lease attempt reached the coordinator, so this worker is
		// actually able to take jobs.
		ops.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(rw, "ok")
		})
		ops.HandleFunc("GET /readyz", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if !w.Ready() {
				rw.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(rw, "coordinator unreachable")
				return
			}
			fmt.Fprintln(rw, "ok")
		})
		addr, err := pprofserve.Serve(c.pprofAddr, ops)
		if err != nil {
			return err
		}
		log.Info("ops listener up", "addr", addr.String(),
			"pprof", fmt.Sprintf("http://%s/debug/pprof/", addr),
			"metrics", fmt.Sprintf("http://%s/metrics", addr))
	}
	return w.Run(ctx)
}
