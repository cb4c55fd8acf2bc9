// Command safespec-coordinator hosts a persistent SafeSpec grid
// coordinator: a long-lived service that safespec-worker processes poll
// for leased jobs and to which safespec-bench -remote submits sweeps. One
// coordinator serves any number of sequential (or concurrent) sweeps, so
// a multi-machine worker fleet stays up between bench runs.
//
// Usage:
//
//	safespec-coordinator -listen 0.0.0.0:9090 -token SECRET
//	safespec-worker -coordinator http://host:9090 -token SECRET   # on each machine
//	safespec-bench -figs perf -remote http://host:9090 -token SECRET
//
// Across trust boundaries, serve TLS natively and split clients into
// tenants:
//
//	safespec-coordinator -listen 0.0.0.0:9443 \
//	    -tls-cert cert.pem -tls-key key.pem \
//	    -token-file tenants.json -pprof 127.0.0.1:6060
//
// The token file maps per-client bearer tokens to named tenants; a sweep
// belongs to the tenant that opened it, and other tenants get 404 for its
// id. The single -token flag is a shorthand for one tenant named
// "default". An unknown token gets 401. An empty token configuration
// disables auth and should only be used on loopback. Jobs are leased with
// a TTL (-lease-ttl): a crashed worker's jobs are requeued to the
// surviving fleet. A sweep whose submitting bench process disappears is
// abandoned after -sweep-ttl, so coordinator memory holds steady over
// days.
//
// With -state-dir the coordinator journals every sweep mutation to disk
// and recovers in-flight sweeps on restart: delivered results serve
// existing cursors without re-simulation, undelivered jobs re-enter the
// queue, and clients (safespec-bench -remote) ride the restart out
// transparently. SIGTERM/SIGINT drains gracefully — leases stop, in-flight
// requests finish within -drain-timeout, state is snapshotted — while
// kill -9 is recovered from the journal. The -pprof listener additionally serves
// Prometheus-style metrics on /metrics and a live read-only HTML results
// page on /status — unauthenticated by design, so keep it on loopback or
// an operations network.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"safespec/internal/grid"
	"safespec/internal/obs"
	"safespec/internal/pprofserve"
)

// config carries the flag surface (kept as a struct so tests can drive run
// directly).
type config struct {
	listen    string
	token     string
	tokenFile string
	tlsCert   string
	tlsKey    string
	leaseTTL  time.Duration
	retries   int
	sweepTTL  time.Duration
	quarAfter int
	stateDir  string
	drainWait time.Duration
	quiet     bool
	logLevel  string
	logFormat string
	pprofAddr string

	info io.Writer // log destination (stderr in main)
}

func main() {
	var c config
	flag.StringVar(&c.listen, "listen", "127.0.0.1:9090", "listen address (host:port; :0 for an ephemeral port, announced in the startup log line)")
	flag.StringVar(&c.token, "token", os.Getenv("SAFESPEC_TOKEN"), "single-tenant shorthand: one tenant with this bearer token (default $SAFESPEC_TOKEN; empty with no -token-file disables auth)")
	flag.StringVar(&c.tokenFile, "token-file", "", "JSON file mapping per-client bearer tokens to named tenants, {\"tenants\": [{\"name\": ..., \"token\": ...}]} (overrides -token)")
	flag.StringVar(&c.tlsCert, "tls-cert", "", "serve native TLS with this PEM certificate (requires -tls-key)")
	flag.StringVar(&c.tlsKey, "tls-key", "", "PEM private key for -tls-cert")
	flag.DurationVar(&c.leaseTTL, "lease-ttl", 0, "job lease duration; size it above the slowest single job (default 2m)")
	flag.IntVar(&c.retries, "lease-retries", 0, "lease grants per job before it fails as lost (default 5)")
	flag.DurationVar(&c.sweepTTL, "sweep-ttl", 0, "abandon a sweep whose client stopped polling this long ago (default 10m)")
	flag.IntVar(&c.quarAfter, "quarantine-after", 0, "quarantine a job after incidents from this many distinct workers (default 2; 1 quarantines on the first incident)")
	flag.StringVar(&c.stateDir, "state-dir", "", "journal sweep state under this directory and recover it on restart (empty disables durability)")
	flag.DurationVar(&c.drainWait, "drain-timeout", 5*time.Second, "on SIGTERM/SIGINT, wait this long for in-flight requests to finish before closing")
	flag.BoolVar(&c.quiet, "quiet", false, "suppress per-sweep progress lines (same as -log-level warn)")
	flag.StringVar(&c.logLevel, "log-level", "info", "log level: debug|info|warn|error")
	flag.StringVar(&c.logFormat, "log-format", "text", "log format: text|json")
	flag.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof plus /metrics (Prometheus text) and /status (live HTML) on this unauthenticated address (e.g. 127.0.0.1:6060)")
	flag.Parse()
	c.info = os.Stderr

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, c); err != nil {
		fmt.Fprintln(os.Stderr, "safespec-coordinator:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, c config) error {
	if (c.tlsCert == "") != (c.tlsKey == "") {
		return fmt.Errorf("-tls-cert and -tls-key go together (got cert=%q key=%q)", c.tlsCert, c.tlsKey)
	}
	if c.quiet && (c.logLevel == "" || c.logLevel == "info") {
		c.logLevel = "warn"
	}
	log, err := obs.NewLogger(c.info, c.logLevel, c.logFormat)
	if err != nil {
		return err
	}
	var tenants []grid.Tenant
	if c.tokenFile != "" {
		if tenants, err = grid.LoadTenants(c.tokenFile); err != nil {
			return err
		}
	}
	server := grid.NewServer(grid.ServerOptions{
		Token:           c.token,
		Tenants:         tenants,
		LeaseTTL:        c.leaseTTL,
		MaxAttempts:     c.retries,
		QuarantineAfter: c.quarAfter,
		SweepTTL:        c.sweepTTL,
		Log:             log,
	})
	if c.stateDir != "" {
		if err := server.OpenState(c.stateDir); err != nil {
			return err
		}
	}
	if c.pprofAddr != "" {
		addr, err := pprofserve.Serve(c.pprofAddr, server.OpsHandler())
		if err != nil {
			return err
		}
		log.Info("ops listener up", "addr", addr.String(),
			"pprof", fmt.Sprintf("http://%s/debug/pprof/", addr),
			"metrics", fmt.Sprintf("http://%s/metrics", addr),
			"status", fmt.Sprintf("http://%s/status", addr))
	}
	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		return err
	}
	auth := "enabled"
	switch {
	case len(tenants) > 0:
		auth = fmt.Sprintf("enabled, %d tenants", len(tenants))
	case c.token == "":
		auth = "DISABLED; set -token, $SAFESPEC_TOKEN or -token-file for anything beyond loopback"
	}
	scheme := "http"
	if c.tlsCert != "" {
		scheme = "https"
	}
	log.Info("coordinator listening", "url", fmt.Sprintf("%s://%s", scheme, ln.Addr()), "auth", auth)

	// net/http's own errors (TLS handshakes, malformed requests) go through
	// the structured logger, so they follow -log-format and -log-level.
	srv := &http.Server{Handler: server.Handler(), ReadHeaderTimeout: 10 * time.Second,
		ErrorLog: slog.NewLogLogger(log.Handler(), slog.LevelWarn)}
	errc := make(chan error, 1)
	go func() {
		if c.tlsCert != "" {
			errc <- srv.ServeTLS(ln, c.tlsCert, c.tlsKey)
		} else {
			errc <- srv.Serve(ln)
		}
	}()
	select {
	case <-ctx.Done():
		// Graceful drain: stop granting leases, wake parked long-polls so
		// in-flight requests finish, then give Shutdown a bounded window
		// before forcing the listener closed. Exit 0 either way — shutdown
		// is an operator action, not a failure.
		log.Info("draining", "timeout", c.drainWait.String())
		server.Drain()
		shutCtx, cancelShut := context.WithTimeout(context.Background(), c.drainWait)
		if serr := srv.Shutdown(shutCtx); serr != nil {
			srv.Close()
		}
		cancelShut()
		<-errc
		err = nil
	case err = <-errc:
		if err == http.ErrServerClosed {
			err = nil
		}
	}
	if c.stateDir != "" {
		// Fold the journal into a final snapshot; a kill -9 skips this and
		// replays the journal on the next start instead.
		if cerr := server.CloseState(); cerr != nil {
			log.Error("state close failed", "err", cerr.Error())
		}
	}
	s := server.Stats()
	log.Info("coordinator summary",
		"sweeps_served", s.SweepsSubmitted, "sweeps_abandoned", s.SweepsAbandoned,
		"leases_granted", s.Granted, "jobs_completed", s.Completed,
		"leases_requeued", s.Requeued, "jobs_failed", s.Failed)
	return err
}
