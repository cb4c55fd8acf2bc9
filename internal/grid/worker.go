package grid

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"safespec/internal/core"
	"safespec/internal/obs"
	"safespec/internal/sweep"
)

// WorkerMetrics is the instrument set a worker exposes on its -pprof/ops
// listener. Register it once on a registry and share it across the
// worker's lease loops; a nil *WorkerMetrics disables instrumentation (all
// methods on the zero Worker still work).
type WorkerMetrics struct {
	// Leased/Completed/Failed/Requeued count job outcomes: leases obtained,
	// results accepted by the coordinator, jobs whose execution returned an
	// error (still reported — an error is a final result), and results the
	// coordinator discarded (expired lease) or jobs abandoned on shutdown.
	Leased, Completed, Failed, Requeued *obs.Counter
	// CacheHits/CacheMisses mirror the worker's result cache at scrape time
	// (the binary wires the mirror; they stay 0 without a cache).
	CacheHits, CacheMisses *obs.Counter
	// LeaseLatency observes the lease POST round trip; SimulateTime
	// observes each job's simulate span.
	LeaseLatency, SimulateTime *obs.Histogram
	// Incidents counts contained job failures by kind (panic, timeout,
	// memory) — each one a job this worker survived instead of dying on.
	Incidents *obs.CounterVec
}

// NewWorkerMetrics registers the worker instrument set on reg.
func NewWorkerMetrics(reg *obs.Registry) *WorkerMetrics {
	return &WorkerMetrics{
		Leased:       reg.Counter("safespec_worker_jobs_leased_total", "Job leases obtained from the coordinator."),
		Completed:    reg.Counter("safespec_worker_jobs_completed_total", "Results accepted by the coordinator."),
		Failed:       reg.Counter("safespec_worker_jobs_failed_total", "Jobs whose execution returned an error."),
		Requeued:     reg.Counter("safespec_worker_jobs_requeued_total", "Results discarded (stale lease) or jobs abandoned on shutdown."),
		CacheHits:    reg.Counter("safespec_worker_cache_hits_total", "Result-cache hits (0 without -cache-dir)."),
		CacheMisses:  reg.Counter("safespec_worker_cache_misses_total", "Result-cache misses (0 without -cache-dir)."),
		LeaseLatency: reg.Histogram("safespec_worker_lease_latency_seconds", "Lease request round-trip latency.", nil),
		SimulateTime: reg.Histogram("safespec_worker_job_simulate_seconds", "Per-job simulation time.", nil),
		Incidents:    reg.CounterVec("safespec_worker_incidents_total", "Contained job failures reported to the coordinator, by kind.", "kind"),
	}
}

// Worker polls a coordinator for leased jobs, executes them and reports
// results. Parallel lease loops run concurrently; each one simulates
// through Exec, so a worker can itself sit behind a result cache.
type Worker struct {
	// Coordinator is the base URL of the coordinator ("http://host:port").
	Coordinator string
	// ID names this worker in lease ids and logs.
	ID string
	// Token is the coordinator's shared bearer secret ("" sends no
	// Authorization header; required when the coordinator enforces auth).
	Token string
	// Parallel is the number of concurrent lease loops (<=0 selects
	// GOMAXPROCS).
	Parallel int
	// Exec executes leased jobs (nil selects sweep.LocalExecutor).
	Exec sweep.Executor
	// Poll is the idle sleep between lease attempts when the coordinator
	// has no work (default 250ms). Transport errors back off up to 16x.
	Poll time.Duration
	// MaxIdle exits Run after the coordinator has been unreachable for this
	// long (0 = keep polling until ctx is cancelled). Idle 204 responses do
	// not count: an empty queue is a healthy state between sweeps.
	MaxIdle time.Duration
	// Client is the HTTP client (nil selects one with a 30s timeout).
	Client *http.Client
	// Log receives structured progress records (nil discards them). Job
	// records carry sweep id, job hash, bench, mode and seed.
	Log *slog.Logger
	// Metrics, when non-nil, counts job outcomes and observes latencies.
	Metrics *WorkerMetrics
	// MemLimit, when positive, arms a soft memory guard: while a job runs,
	// the process heap is polled and a job observed past the limit is
	// abandoned with a "memory" incident. The guard is process-wide (Go
	// cannot account one goroutine's allocations), so size it for the
	// whole worker, not one job.
	MemLimit int64

	// ready tracks coordinator reachability for the ops /readyz probe:
	// true after any answered request, false across an unreachable streak
	// and after Run returns.
	ready atomic.Bool

	// sleepFn is a test seam for backoff pauses (defaults to sleep).
	sleepFn func(ctx context.Context, d time.Duration) bool
}

// Ready reports whether the worker has a live coordinator connection — the
// ops listener's /readyz answer. It is false until the first answered
// request, across unreachable streaks, and after Run returns.
func (w *Worker) Ready() bool { return w.ready.Load() }

func (w *Worker) log() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.New(slog.DiscardHandler)
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	if w.sleepFn != nil {
		return w.sleepFn(ctx, d)
	}
	return sleep(ctx, d)
}

// Run polls until ctx is cancelled (or the coordinator stays unreachable
// past MaxIdle). It returns nil on cancellation: being told to stop is the
// normal end of a worker's life. Shutdown is graceful, not immediate: the
// local simulator does not observe ctx mid-job, so in-flight jobs run to
// completion and their results are still reported (on a short detached
// deadline); a ctx-honoring Exec that dies with the cancellation instead
// has its job silently requeued via lease expiry.
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" {
		return fmt.Errorf("grid: worker needs a coordinator URL")
	}
	client := w.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	exec := w.Exec
	if exec == nil {
		exec = sweep.LocalExecutor{}
	}
	loops := w.Parallel
	if loops <= 0 {
		loops = runtime.GOMAXPROCS(0)
	}
	w.log().Info("worker polling", "worker", w.ID, "coordinator", w.Coordinator, "loops", loops)
	defer w.ready.Store(false)
	err := sweep.ForEach(ctx, loops, loops, func(ctx context.Context, loop int) error {
		return w.loop(ctx, loop, client, exec, poll)
	})
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// loop is one lease loop: lease, execute, report, repeat.
func (w *Worker) loop(ctx context.Context, loop int, client *http.Client,
	exec sweep.Executor, poll time.Duration) error {
	log := w.log().With("worker", w.ID, "loop", loop)
	// The lease backoff schedule: first retry after one poll interval,
	// doubling to 16x. failures counts consecutive lease faults and resets
	// on any answer from a healthy queue.
	leaseRetry := backoff{Base: poll, Cap: 16 * poll}
	failures := 0
	var unreachableSince time.Time
	for {
		if ctx.Err() != nil {
			return nil
		}
		leaseStart := time.Now()
		lease, ok, err := w.lease(ctx, client, loop)
		if err == nil && w.Metrics != nil {
			w.Metrics.LeaseLatency.Observe(time.Since(leaseStart).Seconds())
		}
		// Readiness tracks reachability, not queue depth: any useful answer
		// — including 204 (idle) — proves the coordinator is there;
		// transport failures and auth rejections flip it off.
		w.ready.Store(err == nil)
		switch {
		case errors.Is(err, errUnauthorized):
			// A wrong token never becomes right; polling on would only spam
			// the coordinator's auth log.
			return err
		case err != nil:
			if unreachableSince.IsZero() {
				unreachableSince = time.Now()
			}
			if w.MaxIdle > 0 && time.Since(unreachableSince) > w.MaxIdle {
				return fmt.Errorf("grid: coordinator %s unreachable for %v: %w",
					w.Coordinator, w.MaxIdle, err)
			}
			pause := leaseRetry.pause(failures)
			failures++
			log.Warn("lease failed, backing off", "err", err.Error(), "pause", pause.String())
			if !w.sleep(ctx, pause) {
				return nil
			}
			continue
		case !ok: // empty queue
			unreachableSince, failures = time.Time{}, 0
			if !w.sleep(ctx, poll) {
				return nil
			}
			continue
		}
		unreachableSince, failures = time.Time{}, 0
		if w.Metrics != nil {
			w.Metrics.Leased.Inc()
		}
		jlog := log.With("sweep", lease.SweepID, "bench", lease.Job.Bench,
			"mode", lease.Job.Mode, "seed", lease.Job.Seed)
		if hash, err := lease.Job.Hash(); err == nil {
			jlog = jlog.With("job_hash", hash[:12])
		}

		start := time.Now()
		out := sweep.Result{Index: lease.Index} // the job stays off the wire: the coordinator holds it
		got, inc := w.execContained(ctx, lease, exec)
		if inc != nil {
			// The job was contained (panic, watchdog, memory guard): the
			// slot survives and the incident — not a dead process — tells
			// the coordinator, which requeues or quarantines the job.
			inc.LeaseID, inc.Worker = lease.LeaseID, w.ID
			if w.Metrics != nil && w.Metrics.Incidents != nil {
				w.Metrics.Incidents.With(inc.Kind).Inc()
			}
			jlog.Warn("job contained", "kind", inc.Kind, "msg", inc.Message)
			w.reportIncident(ctx, client, *inc)
			continue
		}
		timing := got.timing
		out.Res, out.Err = got.res, got.err
		jobErr := out.Err
		if ctx.Err() != nil && (errors.Is(jobErr, context.Canceled) || errors.Is(jobErr, context.DeadlineExceeded)) {
			// The job died with this worker's own shutdown, not on its own
			// merits. Reporting ctx.Err() would turn a recoverable worker
			// crash into a permanent error row in the sweep; stay silent and
			// let the lease TTL hand the job to a live worker instead.
			if w.Metrics != nil {
				w.Metrics.Requeued.Inc()
			}
			jlog.Warn("job abandoned on shutdown; lease TTL will requeue it")
			return nil
		}
		out.Wall = time.Since(start)
		out.Timing = timing
		if w.Metrics != nil {
			if jobErr != nil {
				w.Metrics.Failed.Inc()
			}
			if timing != nil && timing.SimulateNS > 0 {
				w.Metrics.SimulateTime.Observe(time.Duration(timing.SimulateNS).Seconds())
			}
		}
		reportCtx, cancelReport := ctx, context.CancelFunc(func() {})
		if ctx.Err() != nil {
			// The worker is shutting down but the job finished anyway (the
			// local simulator runs to completion): deliver the result on a
			// short detached deadline instead of throwing the work away and
			// making another worker wait out the lease TTL to redo it.
			reportCtx, cancelReport = context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		}
		err = w.report(reportCtx, client, lease.LeaseID, out)
		cancelReport()
		if err != nil {
			// The lease expired or the coordinator re-queued the job; the
			// authoritative copy is theirs now.
			if w.Metrics != nil {
				w.Metrics.Requeued.Inc()
			}
			jlog.Warn("result discarded", "err", err.Error())
			continue
		}
		if w.Metrics != nil {
			w.Metrics.Completed.Inc()
		}
		jlog.Info("job done", "wall", out.Wall.Round(time.Millisecond).String())
	}
}

// contained is one contained job execution's outcome.
type contained struct {
	res      *core.Results
	timing   *sweep.Timing
	err      error
	panicked string // non-empty when the execution goroutine panicked
}

// memPollEvery is the soft memory guard's heap sampling interval while a
// job runs (runtime.ReadMemStats briefly stops the world, so the guard
// polls coarsely rather than continuously).
const memPollEvery = 100 * time.Millisecond

// watchdogFor derives the slot watchdog from the lease TTL: 90% of it, so
// the coordinator hears a structured timeout incident before its own TTL
// silently requeues the job (0 disables — a lease without a TTL cannot be
// outlived).
func watchdogFor(lease LeaseResponse) time.Duration {
	if lease.TTLMS <= 0 {
		return 0
	}
	ttl := time.Duration(lease.TTLMS) * time.Millisecond
	return ttl - ttl/10
}

// execContained runs one leased job inside the slot's containment
// envelope: a recover() converting panics (in the executor wrapper chain —
// result cache, fault injectors — as well as the simulator) into "panic"
// incidents, a wall-clock watchdog derived from the lease TTL ("timeout"),
// and an optional soft memory guard ("memory"). Exactly one of the
// returned values is meaningful: inc is nil for a normal completion.
//
// On timeout and memory incidents the execution goroutine is abandoned,
// not killed (Go cannot kill a goroutine): its eventual send lands in the
// buffered channel and is collected, never reported — the coordinator has
// already requeued the job under a fresh lease, and the original lease id
// still honors whichever report arrives first. Incident messages carry no
// clocks, addresses or worker names, so a quarantined job's error row is
// byte-stable whenever the underlying fault is deterministic.
func (w *Worker) execContained(ctx context.Context, lease LeaseResponse, exec sweep.Executor) (contained, *IncidentRequest) {
	ch := make(chan contained, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- contained{panicked: fmt.Sprintf("%v", r)}
			}
		}()
		var c contained
		if timed, isTimed := exec.(sweep.TimedExecutor); isTimed {
			c.res, c.timing, c.err = timed.ExecuteTimed(ctx, lease.Index, lease.Job)
		} else {
			c.res, c.err = exec.Execute(ctx, lease.Index, lease.Job)
		}
		ch <- c
	}()
	var watchC <-chan time.Time
	wd := watchdogFor(lease)
	if wd > 0 {
		timer := time.NewTimer(wd)
		defer timer.Stop()
		watchC = timer.C
	}
	var memC <-chan time.Time
	if w.MemLimit > 0 {
		tick := time.NewTicker(memPollEvery)
		defer tick.Stop()
		memC = tick.C
	}
	for {
		select {
		case c := <-ch:
			if c.panicked != "" {
				return contained{}, &IncidentRequest{Kind: IncidentPanic, Message: c.panicked}
			}
			return c, nil
		case <-watchC:
			return contained{}, &IncidentRequest{Kind: IncidentTimeout,
				Message: fmt.Sprintf("job exceeded the slot watchdog (%s, 90%% of the lease TTL)", wd)}
		case <-memC:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > uint64(w.MemLimit) {
				w.log().Warn("soft memory limit crossed", "worker", w.ID,
					"heap", ms.HeapAlloc, "limit", w.MemLimit)
				return contained{}, &IncidentRequest{Kind: IncidentMemory,
					Message: fmt.Sprintf("process heap crossed the soft memory limit (%d bytes)", w.MemLimit)}
			}
		}
	}
}

// reportIncident posts one contained failure, best-effort: a few transport
// retries, then give up — the coordinator's lease TTL covers a lost
// incident the same way it covers a lost worker. A shutting-down worker
// reports on a short detached deadline, like final results.
func (w *Worker) reportIncident(ctx context.Context, client *http.Client, inc IncidentRequest) {
	rctx, cancel := ctx, context.CancelFunc(func() {})
	if ctx.Err() != nil {
		rctx, cancel = context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	}
	defer cancel()
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 && !w.sleep(rctx, reportRetry.pause(attempt-1)) {
			return
		}
		status, err := w.post(rctx, client, "/v1/incident", inc, nil)
		if err != nil || status >= 500 {
			continue // transport fault or server error: retry
		}
		return // accepted (200) or terminally judged (4xx): done either way
	}
	w.log().Warn("incident report lost", "worker", w.ID, "kind", inc.Kind)
}

// errUnauthorized marks a coordinator 401 — a configuration error, not a
// transient fault — so the worker exits (and the remote executor stops
// retrying) instead of hammering the coordinator's auth log.
var errUnauthorized = errors.New("coordinator rejected the bearer token (status 401); check -token/SAFESPEC_TOKEN")

// lease requests one job; ok is false on an empty queue (204).
func (w *Worker) lease(ctx context.Context, client *http.Client, loop int) (LeaseResponse, bool, error) {
	var resp LeaseResponse
	status, err := w.post(ctx, client, "/v1/lease",
		LeaseRequest{Worker: fmt.Sprintf("%s/%d", w.ID, loop)}, &resp)
	if err != nil {
		return resp, false, err
	}
	switch status {
	case http.StatusOK:
		return resp, true, nil
	case http.StatusNoContent:
		return resp, false, nil
	case http.StatusUnauthorized:
		return resp, false, errUnauthorized
	default:
		return resp, false, fmt.Errorf("lease: unexpected status %d", status)
	}
}

// reportRetry is the report retry schedule for transport faults and 5xx:
// a fast doubling schedule whose eight attempts fit the 10-second detached
// budget a shutting-down worker gets (a coordinator mid-restart refuses
// connections for a few seconds — a finished result must survive that,
// not be thrown away and re-simulated).
var reportRetry = backoff{Base: 200 * time.Millisecond, Cap: 2 * time.Second}

// report posts a finished lease, retrying transport errors and 5xx until
// its backoff budget runs out, then giving the job back to the coordinator
// via lease expiry. Any 4xx other than 409 (stale lease, reported by the
// caller) is terminal: the coordinator rejected the payload itself, and
// retrying the same bytes can only fail the same way.
func (w *Worker) report(ctx context.Context, client *http.Client, leaseID string, r sweep.Result) error {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 && !w.sleep(ctx, reportRetry.pause(attempt-1)) {
			return ctx.Err()
		}
		var status int
		status, err = w.post(ctx, client, "/v1/result", ResultRequest{LeaseID: leaseID, Result: r}, nil)
		if err != nil {
			continue
		}
		switch {
		case status == http.StatusOK:
			return nil
		case status == http.StatusConflict:
			return fmt.Errorf("result: lease %s no longer valid", leaseID)
		case status >= 400 && status < 500:
			return fmt.Errorf("result: permanently rejected with status %d", status)
		default:
			err = fmt.Errorf("result: unexpected status %d", status)
		}
	}
	return err
}

// post sends one JSON request and decodes a JSON body into out (when non-nil
// and the status is 200). Every request carries the worker identity header,
// which ties the worker's lease loops together for the holder rule.
func (w *Worker) post(ctx context.Context, client *http.Client, path string, in, out any) (int, error) {
	return doJSON(ctx, client, http.MethodPost, w.Coordinator+path, w.Token, w.ID, in, out)
}

// sleep waits d or until ctx is done, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoff is a capped doubling retry schedule.
type backoff struct{ Base, Cap time.Duration }

// pause returns the wait before retry attempt (0-based): Base doubled once
// per attempt, never above Cap.
func (b backoff) pause(attempt int) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	return min(d, b.Cap)
}
