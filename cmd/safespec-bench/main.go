// Command safespec-bench regenerates the paper's evaluation: the shadow
// sizing study (Figures 6-9), the performance comparison (Figures 11-16),
// the security matrices (Tables III/IV) and the hardware overhead
// (Table V).
//
// Usage:
//
//	safespec-bench                      # everything
//	safespec-bench -figs sizing         # Figures 6-9 only
//	safespec-bench -figs perf           # Figures 11-16 only
//	safespec-bench -figs security       # Tables III/IV only
//	safespec-bench -figs overhead       # Table V only
//	safespec-bench -instrs 250000       # longer runs
//	safespec-bench -bench mcf,gcc       # subset of benchmarks
//	safespec-bench -workers 4           # bound the worker pool
//	safespec-bench -quick               # CI smoke matrix
//	safespec-bench -figs perf -json     # per-job JSON-lines rows on stdout
//	safespec-bench -seeds 1,2,3         # seed fan; figures show mean ± 95% CI
//	safespec-bench -cache-dir .cache    # content-addressed result cache
//	safespec-bench -serve :9090         # host an in-process coordinator for a worker fleet
//	safespec-bench -remote http://host:9090 -token SECRET
//	                                    # submit the sweep to a persistent safespec-coordinator
//	safespec-bench -remote https://host:9443 -token SECRET -tls-ca cert.pem
//	                                    # ... over TLS, trusting a self-signed coordinator cert
//
// The per-job rows emitted by -json are deterministic and arrive in job
// order for any -workers value, so outputs are byte-identical across worker
// counts — and across local, cached and distributed execution. Progress and
// accounting go to stderr.
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
	"strconv"
	"strings"
	"time"

	"safespec/internal/figures"
	"safespec/internal/grid"
	"safespec/internal/obs"
	"safespec/internal/resultcache"
	"safespec/internal/sweep"
)

// options carries the flag surface (kept as a struct so tests can drive run
// directly and capture its output).
type options struct {
	figs     string
	instrs   uint64 // 0 = preset default
	bench    string
	seeds    string
	serial   bool
	workers  int
	timeout  time.Duration
	json     bool
	quick    bool
	cacheDir string
	cacheGC  string
	remote   string
	serve    string
	token    string
	tlsCA    string
	leaseTTL time.Duration
	retries  int

	logLevel  string
	logFormat string

	out  io.Writer // table / JSON output (stdout in main)
	info io.Writer // progress + accounting (stderr in main)
}

func main() {
	var o options
	flag.StringVar(&o.figs, "figs", "all", "which outputs: all|sizing|perf|security|overhead|config (none = run nothing, for a standalone -cache-gc pass)")
	flag.Uint64Var(&o.instrs, "instrs", 0, "committed instructions per benchmark run (default: preset)")
	flag.StringVar(&o.bench, "bench", "", "comma-separated benchmark subset (default: all 21)")
	flag.BoolVar(&o.serial, "serial", false, "run benchmarks one at a time (same as -workers 1)")
	flag.IntVar(&o.workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the sweep after this long (0 = no bound)")
	flag.BoolVar(&o.json, "json", false, "emit per-job JSON-lines rows on stdout instead of tables (requires -figs sizing|perf|overhead)")
	flag.BoolVar(&o.quick, "quick", false, "use the reduced smoke matrix (sweep.Quick) for CI")
	flag.StringVar(&o.seeds, "seeds", "", "comma-separated generator seed fan per (bench, mode) cell; figures collapse it into mean ± 95% CI")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "content-addressed result cache directory (identical cells are never simulated twice)")
	flag.StringVar(&o.remote, "remote", "", "submit the sweep to a persistent safespec-coordinator at this base URL (e.g. http://host:9090)")
	flag.StringVar(&o.serve, "serve", "", "host an in-process grid coordinator on this listen address and run the sweep through it (the degenerate -remote; lets safespec-worker processes join)")
	flag.StringVar(&o.token, "token", os.Getenv("SAFESPEC_TOKEN"), "coordinator bearer token for -remote, and the token enforced by -serve (default $SAFESPEC_TOKEN)")
	flag.StringVar(&o.tlsCA, "tls-ca", "", "PEM bundle to trust for an https:// -remote coordinator (e.g. its self-signed -tls-cert); empty uses the system roots")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", 0, "grid lease duration for -serve; size it above the slowest single job (default 2m)")
	flag.IntVar(&o.retries, "lease-retries", 0, "grid lease grants per job before it fails as lost, for -serve (default 5)")
	flag.StringVar(&o.cacheGC, "cache-gc", "", "prune the -cache-dir result cache to at most this many bytes, oldest entries first (accepts K/M/G suffixes; runs standalone when no sweep is requested)")
	flag.StringVar(&o.logLevel, "log-level", "info", "log level for progress records on stderr: debug|info|warn|error")
	flag.StringVar(&o.logFormat, "log-format", "text", "log format for progress records: text|json")
	flag.Parse()
	o.out, o.info = os.Stdout, os.Stderr

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "safespec-bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	want := func(k string) bool { return o.figs == "all" || o.figs == k }
	sweeps := want("sizing") || want("perf") || want("overhead")
	if o.cacheGC != "" {
		if o.cacheDir == "" {
			return fmt.Errorf("-cache-gc prunes the result cache; it needs -cache-dir")
		}
		if !sweeps {
			if o.figs != "none" {
				// Refuse to silently skip requested non-sweep outputs
				// (security/config run no sweep and never touch the cache).
				return fmt.Errorf("-cache-gc with -figs %s runs no sweep; use -figs none for a standalone GC pass", o.figs)
			}
			// Standalone GC pass: prune and exit without running anything.
			return runCacheGC(o)
		}
	}
	if o.json {
		switch o.figs {
		case "sizing", "perf", "overhead":
		default:
			// "all" is rejected too: its security/config outputs have no row
			// representation and would be silently dropped.
			return fmt.Errorf("-json emits per-job sweep rows; -figs %s has outputs without rows (want sizing|perf|overhead)", o.figs)
		}
	}

	if (o.remote != "" || o.serve != "" || o.cacheDir != "") && !sweeps {
		return fmt.Errorf("-remote/-serve/-cache-dir apply to sweeps; -figs %s runs none (use -cache-gc for a standalone cache prune)", o.figs)
	}
	if o.remote != "" && o.serve != "" {
		return fmt.Errorf("-remote submits to an external coordinator and -serve hosts one in-process; pick one")
	}
	if o.tlsCA != "" && o.remote == "" {
		return fmt.Errorf("-tls-ca pins the certificate of an https:// -remote coordinator; -serve is plain http on a trusted network")
	}
	if (o.leaseTTL != 0 || o.retries != 0) && o.serve == "" {
		return fmt.Errorf("-lease-ttl/-lease-retries configure the in-process coordinator (-serve); an external coordinator owns its lease policy (set them on safespec-coordinator)")
	}

	if want("config") && !o.json {
		printConfig(o.out)
	}

	var sweepRes []figures.BenchResult
	if sweeps {
		log, err := obs.NewLogger(o.info, o.logLevel, o.logFormat)
		if err != nil {
			return err
		}
		sc, err := sweepConfig(o)
		if err != nil {
			return err
		}
		exec, finish, err := buildExecutor(o, log)
		if err != nil {
			return err
		}
		defer finish()
		sc.Executor = exec
		agg := &sweep.Aggregate{}
		sc.Sinks = append(sc.Sinks, agg)
		// Periodic done/total, rate and ETA lines on stderr; the count comes
		// from the same matrix expansion RunSweep performs.
		if jobs, jerr := sc.Matrix(); jerr == nil {
			sc.Sinks = append(sc.Sinks, &sweep.Progress{Total: len(jobs), Log: log})
		}
		if o.json {
			sc.Sinks = append(sc.Sinks, sweep.NewJSONL(o.out))
		}
		fmt.Fprintf(o.info, "running sweep: %d instructions per benchmark per mode...\n", sc.Instructions)
		sweepRes, err = figures.RunSweep(sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.info, "sweep done: %s\n", agg)
		if s := agg.SpanSummary(); s != "" {
			fmt.Fprintf(o.info, "sweep %s\n", s)
		}
	}

	if !o.json {
		if want("sizing") {
			fmt.Fprintln(o.out, "=== Figures 6-9: shadow structure size covering 99.99% of cycles ===")
			fmt.Fprintln(o.out, figures.FormatSizing(figures.Sizing(sweepRes)))
		}
		if want("perf") {
			fmt.Fprintln(o.out, "=== Figures 11-16: performance of SafeSpec (WFC) vs baseline ===")
			fmt.Fprintln(o.out, figures.FormatPerformance(figures.Performance(sweepRes)))
		}
		if want("overhead") {
			fmt.Fprintln(o.out, "=== Table V: hardware overhead at 40nm ===")
			fmt.Fprintln(o.out, figures.FormatTableV(figures.TableVFromSizing(figures.Sizing(sweepRes))))
		}
	}
	if o.cacheGC != "" {
		// GC after the sweep so the entries it just wrote are the newest.
		if err := runCacheGC(o); err != nil {
			return err
		}
	}
	if want("security") && !o.json {
		fmt.Fprintln(o.out, "=== Tables III/IV: security evaluation ===")
		rows, err := figures.Security()
		if err != nil {
			return err
		}
		tr, err := figures.Transient()
		if err != nil {
			return err
		}
		fmt.Fprintln(o.out, figures.FormatSecurity(rows, tr))
	}
	return nil
}

// sweepConfig derives the figures sweep configuration from the flags:
// -quick selects the CI smoke matrix, -instrs/-bench/-seeds override the
// preset, and -serial forces a single worker.
func sweepConfig(o options) (figures.SweepConfig, error) {
	sc := figures.DefaultSweep()
	if o.quick {
		sc = figures.QuickSweep()
		sc.Benchmarks = sweep.Quick().Benchmarks
	}
	if o.instrs > 0 {
		sc.Instructions = o.instrs
		// Keep the safety cycle bound proportionate (the default budget's
		// cycles-per-instruction ratio) so a raised -instrs is never
		// silently truncated by a preset's smaller bound.
		d := figures.DefaultSweep()
		sc.MaxCycles = max(sc.MaxCycles, o.instrs*(d.MaxCycles/d.Instructions))
	}
	if o.bench != "" {
		sc.Benchmarks = strings.Split(o.bench, ",")
	}
	if o.seeds != "" {
		seeds, err := parseSeeds(o.seeds)
		if err != nil {
			return sc, err
		}
		sc.Seeds = seeds
	}
	sc.Workers = o.workers
	if (o.remote != "" || o.serve != "") && o.workers == 0 {
		// In remote mode a sweep "worker" is just a goroutine holding one
		// in-flight lease, so the default bound is the queue depth offered
		// to the fleet, not local parallelism.
		sc.Workers = 64
	}
	sc.Timeout = o.timeout
	if o.serial {
		sc.Workers = 1
	}
	return sc, nil
}

// buildExecutor assembles the sweep execution backend from the flags:
// in-process simulation by default, a grid.RemoteExecutor submitting to an
// external persistent coordinator under -remote (or to an in-process one
// under -serve — the degenerate case, for fleets without a standalone
// safespec-coordinator), and any of them behind the content-addressed
// result cache under -cache-dir (cache hits never reach the grid; only
// misses are submitted). finish releases the sweep's coordinator-side
// state and reports cache and grid accounting; it is safe to call exactly
// once after the sweep.
func buildExecutor(o options, log *slog.Logger) (exec sweep.Executor, finish func(), err error) {
	finish = func() {}
	reportGrid := func(s grid.ServerSnapshot) {
		fmt.Fprintf(o.info, "grid: leases granted=%d completed=%d requeued=%d failed=%d incidents=%d quarantined=%d hedged=%d\n",
			s.Granted, s.Completed, s.Requeued, s.Failed, s.Incidents, s.Quarantined, s.Hedged)
	}
	switch {
	case o.serve != "":
		server := grid.NewServer(grid.ServerOptions{
			Token:       o.token,
			LeaseTTL:    o.leaseTTL,
			MaxAttempts: o.retries,
			Log:         log,
		})
		ln, lerr := net.Listen("tcp", o.serve)
		if lerr != nil {
			return nil, nil, fmt.Errorf("grid coordinator: %w", lerr)
		}
		srv := &http.Server{Handler: server.Handler()}
		go srv.Serve(ln)
		fmt.Fprintf(o.info, "grid coordinator listening on http://%s (point safespec-worker -coordinator at it)\n", ln.Addr())
		re := &grid.RemoteExecutor{URL: "http://" + ln.Addr().String(), Token: o.token, Log: log}
		exec = re
		finish = func() {
			re.Close()
			reportGrid(server.Stats())
			srv.Close()
		}
	case o.remote != "":
		client, cerr := grid.NewHTTPClient(o.tlsCA, 0)
		if cerr != nil {
			return nil, nil, cerr
		}
		re := &grid.RemoteExecutor{URL: o.remote, Token: o.token, Client: client, Log: log}
		exec = re
		finish = func() {
			re.Close()
			// The coordinator outlives this sweep; its accounting line is
			// best-effort color, not part of the run's output contract.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if s, serr := re.Stats(ctx); serr == nil {
				reportGrid(s)
			}
		}
	}
	if o.cacheDir != "" {
		cache, cerr := resultcache.Open(o.cacheDir)
		if cerr != nil {
			finish()
			return nil, nil, cerr
		}
		exec = resultcache.NewExecutor(cache, exec)
		inner := finish
		finish = func() {
			fmt.Fprintf(o.info, "%s\n", cache)
			inner()
		}
	}
	return exec, finish, nil
}

// runCacheGC prunes the result cache to the -cache-gc byte budget.
func runCacheGC(o options) error {
	maxBytes, err := parseBytes(o.cacheGC)
	if err != nil {
		return fmt.Errorf("-cache-gc: %w", err)
	}
	cache, err := resultcache.Open(o.cacheDir)
	if err != nil {
		return err
	}
	st, err := cache.Prune(maxBytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.info, "cache-gc %s: kept %d entries (%d bytes), evicted %d (%d bytes), budget %d\n",
		o.cacheDir, st.Kept, st.KeptBytes, st.Evicted, st.EvictedBytes, maxBytes)
	return nil
}

// parseSeeds parses the -seeds fan, rejecting duplicates (a duplicate seed
// would silently re-run identical cells, skewing fans and perf counts).
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	seen := map[int64]bool{}
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %w", err)
		}
		if seen[v] {
			return nil, fmt.Errorf("-seeds: duplicate seed %d", v)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

// parseBytes parses a byte budget with an optional K/M/G suffix (base 1024).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative byte count %d", n)
	}
	return n * mult, nil
}

func printConfig(w io.Writer) {
	fmt.Fprintln(w, "=== Tables I/II: simulated CPU configuration (Skylake-like) ===")
	fmt.Fprint(w, `CPU           6-wide issue, 96-entry IQ, 224-entry ROB, 72-entry LDQ, 56-entry STQ
TLBs          64-entry iTLB, 64-entry dTLB (4-way)
L1I / L1D     32 KB, 8-way, 64 B lines, 4-cycle hit
L2            256 KB, 4-way, 64 B lines, 12-cycle hit
L3            2 MB, 16-way, 64 B lines, 44-cycle hit
Memory        191 cycles
`)
	fmt.Fprintln(w)
}
