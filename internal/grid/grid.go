// Package grid shards a sweep.Job matrix across worker processes over
// HTTP. A Server owns the coordinator, which queues every submitted job and
// leases it to the next polling Worker; a RemoteExecutor hands sweep.Run
// the streamed results, so the run's deterministic in-order sink delivery
// keeps JSONL/CSV output of a distributed sweep byte-identical to a local
// run. A lease that is not completed before its TTL (worker crash, network
// partition) is re-queued and handed to another worker — but a slow
// worker's late result is still accepted while the job remains incomplete,
// since the simulation is deterministic and any completion is the
// completion. A job whose leases are lost too many times fails with an
// error Result instead of stalling the sweep forever.
//
// Wire protocol (JSON over HTTP, versioned under /v1/), served by
// Server.Handler behind per-tenant bearer auth. Workers use the first
// three endpoints, clients the sweep endpoints:
//
//	POST   /v1/lease                   LeaseRequest    -> 200 LeaseResponse | 204 (no work)
//	POST   /v1/result                  ResultRequest   -> 200 | 409 (lease unknown or expired)
//	POST   /v1/incident                IncidentRequest -> 200 | 409 (lease unknown)
//	GET    /v1/stats                                   -> 200 ServerSnapshot
//	POST   /v1/sweeps                  SubmitRequest   -> 200 SubmitResponse
//	POST   /v1/sweeps/{id}/jobs        JobRequest      -> 200 (idempotent per index)
//	GET    /v1/sweeps/{id}/results?after=N&wait=30s    -> 200 ResultBatch
//	DELETE /v1/sweeps/{id}                             -> 200 (sweep state released)
//
// Job execution errors are final results (exactly as in a local run) and
// travel as strings in the Result encoding; only lost leases retry.
package grid

import (
	"container/list"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// LeaseRequest asks the coordinator for one job.
type LeaseRequest struct {
	// Worker identifies the poller in lease ids and stats (free-form).
	Worker string `json:"worker"`
}

// LeaseResponse grants one job under a lease.
type LeaseResponse struct {
	LeaseID string    `json:"lease_id"`
	Index   int       `json:"index"`
	Job     sweep.Job `json:"job"`
	// TTLMS is the lease duration; the worker must report the result within
	// it or the job is re-queued to another worker.
	TTLMS int64 `json:"ttl_ms"`
	// SweepID names the submitted sweep the job belongs to. It exists so
	// worker logs carry the sweep end to end; older workers ignore the
	// field.
	SweepID string `json:"sweep_id,omitempty"`
}

// ResultRequest reports a finished lease. Result carries the job's error
// (if any) as a string; it is a final outcome, not a retry trigger.
type ResultRequest struct {
	LeaseID string       `json:"lease_id"`
	Result  sweep.Result `json:"result"`
}

// Snapshot is the coordinator's accounting, served at /v1/stats. Expired
// counts timed-out leases still waiting for a late result; it returns to
// zero as their jobs complete, fail, or are abandoned, so a persistent
// coordinator holds steady memory across sweeps.
type Snapshot struct {
	Pending   int    `json:"pending"`
	Leased    int    `json:"leased"`
	Expired   int    `json:"expired"`
	Granted   uint64 `json:"granted"`
	Completed uint64 `json:"completed"`
	Requeued  uint64 `json:"requeued"`
	Failed    uint64 `json:"failed"`
	// Incidents counts contained worker failures (panic/timeout/memory)
	// reported through /v1/incident; Quarantined counts jobs completed as
	// poison after incidents on enough distinct workers; Hedged counts
	// duplicate tail leases issued against stalled workers.
	Incidents   uint64 `json:"incidents"`
	Quarantined uint64 `json:"quarantined"`
	Hedged      uint64 `json:"hedged"`
}

// Options configures the coordinator.
type Options struct {
	// LeaseTTL is how long a worker may hold a job before it is re-queued
	// (default 2 minutes; shorten it in tests to exercise the retry path).
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one job may be leased before its
	// lost leases are converted into a job error (default 5).
	MaxAttempts int
	// QuarantineAfter quarantines a job once incidents have been reported
	// against it from this many distinct workers (default 2, so one
	// worker's local trouble never condemns a job; 1 quarantines on the
	// first incident).
	QuarantineAfter int
	// HedgeAfter tunes tail-lease hedging: once the queue is empty and a
	// remaining lease is older than this, a duplicate hedge lease is issued
	// to the next poller. 0 (the default) adapts the threshold to
	// the fleet — twice the p95 of observed lease durations, at least
	// 500ms, once 8 completions have been sampled; negative disables
	// hedging entirely.
	HedgeAfter time.Duration
	// now is a test seam for the lease clock.
	now func() time.Time
}

// task is one job in flight through the coordinator.
type task struct {
	index     int
	job       sweep.Job
	sweepID   string // owning submitted sweep
	attempts  int
	leaseID   string        // non-empty while leased
	deadline  time.Time     // lease expiry while leased
	enqueued  time.Time     // when the job entered the queue (queue-wait span)
	granted   time.Time     // most recent lease grant (report-overhead span)
	deliver   func(outcome) // receives the terminal outcome, exactly once
	elem      *list.Element // position in pending while queued
	expired   []string      // this task's entries in coordinator.expired
	completed bool          // outcome delivered (exactly once)
	cancelled bool          // the owning sweep was closed or abandoned

	worker    string         // base worker id of the most recent grant
	incidents []taskIncident // contained failures reported against this job
	hedged    bool           // a duplicate tail lease was issued (once per task)
}

type outcome struct {
	res    *core.Results
	err    error
	timing *sweep.Timing // span breakdown (nil when the worker sent none)
}

// coordinator queues the jobs of submitted sweeps and leases them to
// polling workers. It is safe for concurrent use: the Server's sweep
// handlers enqueue and abandon jobs while its worker handlers lease and
// complete them.
type coordinator struct {
	opts Options

	// observe, when non-nil, receives every completed result (with its
	// server-stamped Timing) right after delivery; the Server wires it to
	// the metrics histograms. Set before any worker traffic, never after.
	observe func(sweep.Result)

	// onIncident, when non-nil, receives every accepted incident (under
	// c.mu); the Server wires it to the state journal so quarantine
	// history survives a restart. The journal's mutex is the innermost
	// lock, so appending under c.mu is safe.
	onIncident func(sweepID string, index int, inc taskIncident)

	// draining stops lease grants during graceful shutdown: workers see an
	// empty queue (204) and idle, while in-flight results are still
	// accepted — finished work is never thrown away at the door.
	draining atomic.Bool

	mu      sync.Mutex
	pending *list.List       // *task FIFO; retried jobs go to the front
	leases  map[string]*task // leaseID -> task, active leases
	expired map[string]*task // leaseID -> task for timed-out leases: a slow
	// worker's late result is still this job's deterministic result, so it
	// is accepted as long as the job has not completed elsewhere
	seq uint64 // lease id counter

	granted, completed, requeued, failed uint64
	incidents, quarantined, hedged       uint64

	// seen is each worker's last contact (see selfheal.go); lastPrune
	// rate-limits its idle-entry sweep.
	seen      map[string]time.Time
	lastPrune time.Time

	// durs is a ring of recent lease durations (grant to accepted result)
	// feeding the adaptive hedge threshold; hedgeThr/hedgeThrAt cache the
	// computed quantile for a second so lease polls stay O(1).
	durs       [256]time.Duration
	durN       int // filled entries (caps at len(durs))
	durIdx     int // next write position
	hedgeThr   time.Duration
	hedgeThrAt time.Time
}

// newCoordinator builds a coordinator with defaults applied.
func newCoordinator(opts Options) *coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 2 * time.Minute
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.QuarantineAfter <= 0 {
		opts.QuarantineAfter = 2
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	return &coordinator{
		opts:    opts,
		pending: list.New(),
		leases:  make(map[string]*task),
		expired: make(map[string]*task),
		seen:    make(map[string]time.Time),
	}
}

// enqueue queues one job for the worker fleet and returns its task. The
// terminal outcome goes to deliver, called exactly once and without c.mu
// held. sweepID labels the owning submitted sweep in lease responses.
func (c *coordinator) enqueue(index int, j sweep.Job, sweepID string, deliver func(outcome)) *task {
	t := &task{index: index, job: j, sweepID: sweepID, deliver: deliver, enqueued: c.opts.now()}
	c.mu.Lock()
	t.elem = c.pending.PushBack(t)
	c.mu.Unlock()
	return t
}

// abandon withdraws a closed sweep's task from the queue, the lease table and
// the expired-lease index; a late worker report for it gets 409 and is
// discarded.
func (c *coordinator) abandon(t *task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t.cancelled = true
	if t.elem != nil {
		c.pending.Remove(t.elem)
		t.elem = nil
	}
	if t.leaseID != "" {
		delete(c.leases, t.leaseID)
		t.leaseID = ""
	}
	c.purgeExpiredLocked(t)
}

// purgeExpiredLocked forgets the task's timed-out lease ids. Once a job
// reaches a terminal state — completed, failed, or abandoned — a late
// result can no longer be used, and keeping the entries would leak one per
// lease expiry for the life of a persistent coordinator.
func (c *coordinator) purgeExpiredLocked(t *task) {
	for _, id := range t.expired {
		delete(c.expired, id)
	}
	t.expired = nil
}

// requeueExpiredLocked re-queues every lease past its deadline, returning
// the tasks that exhausted their attempts instead; the caller must finish
// those after releasing c.mu. It runs under c.mu on each lease poll: expiry
// needs no timer goroutine, because a lost job only matters when some
// worker is alive to take it.
func (c *coordinator) requeueExpiredLocked(now time.Time) (exhausted []*task) {
	for id, t := range c.leases {
		if now.Before(t.deadline) {
			continue
		}
		delete(c.leases, id)
		t.leaseID = ""
		if t.attempts >= c.opts.MaxAttempts {
			c.failed++
			t.completed = true
			c.purgeExpiredLocked(t)
			exhausted = append(exhausted, t)
			continue
		}
		c.expired[id] = t // a late result under this lease is still welcome
		t.expired = append(t.expired, id)
		c.requeued++
		t.elem = c.pending.PushFront(t) // retries jump the queue
	}
	return exhausted
}

// drain stops lease grants; results for already-granted leases are still
// accepted.
func (c *coordinator) drain() { c.draining.Store(true) }

// lease hands the oldest pending job to a worker (none while draining).
// worker labels the lease id (free-form, typically "id/loop"); base is the
// worker's identity for the holder rule: a retried job — requeued after an
// incident or an expired lease, or hedged — is not granted back to the
// worker that last held it while another worker is live. When the queue is
// empty but leases remain, the poll may hedge a stalled tail lease (see
// maybeHedgeLocked) and immediately grant the duplicate.
func (c *coordinator) lease(worker, base string) (LeaseResponse, bool) {
	if c.draining.Load() {
		return LeaseResponse{}, false
	}
	c.mu.Lock()
	now := c.opts.now()
	c.touchLocked(base, now)
	exhausted := c.requeueExpiredLocked(now)
	var resp LeaseResponse
	var ok bool
	if c.pending.Len() == 0 {
		c.maybeHedgeLocked(now)
	}
	for e := c.pending.Front(); e != nil; e = e.Next() {
		t := e.Value.(*task)
		if t.attempts > 0 && t.worker == base && c.anyOtherLiveLocked(base, now) {
			// A retry exists to get away from the worker that failed, lost
			// or stalled on the job, and a poison job needs a second worker
			// to be quarantined; hand it to someone else while someone else
			// is live. A one-worker fleet still gets it back, or the job
			// would stall.
			continue
		}
		c.pending.Remove(e)
		t.elem = nil
		c.seq++
		t.leaseID = fmt.Sprintf("%s-%d", worker, c.seq)
		t.deadline = now.Add(c.opts.LeaseTTL)
		t.granted = now
		t.worker = base
		t.attempts++
		c.granted++
		c.leases[t.leaseID] = t
		resp = LeaseResponse{
			LeaseID: t.leaseID,
			Index:   t.index,
			Job:     t.job,
			TTLMS:   c.opts.LeaseTTL.Milliseconds(),
			SweepID: t.sweepID,
		}
		ok = true
		break
	}
	c.mu.Unlock()
	for _, t := range exhausted {
		t.deliver(outcome{err: fmt.Errorf("grid: %s: lease lost %d times (worker crash or partition); giving up",
			t.job, t.attempts)})
	}
	return resp, ok
}

// maybeHedgeLocked issues at most one duplicate lease against the oldest
// stalled tail lease: the lease id moves to the expired index (the
// original holder's late result is still welcome — first report wins, the
// loser's gets 409 and is discarded, so output stays byte-identical) and
// the task re-enters the queue front for the polling worker to take.
// Caller holds c.mu and has verified the queue is empty.
func (c *coordinator) maybeHedgeLocked(now time.Time) {
	if len(c.leases) == 0 {
		return
	}
	thr := c.hedgeThresholdLocked(now)
	if thr <= 0 {
		return
	}
	var best *task
	var bestID string
	for id, t := range c.leases {
		if t.hedged || t.attempts >= c.opts.MaxAttempts {
			continue // one hedge per task; never hedge past the attempt bound
		}
		if now.Sub(t.granted) < thr {
			continue
		}
		if best == nil || t.granted.Before(best.granted) {
			best, bestID = t, id
		}
	}
	if best == nil {
		return
	}
	delete(c.leases, bestID)
	c.expired[bestID] = best
	best.expired = append(best.expired, bestID)
	best.leaseID = ""
	best.hedged = true
	c.hedged++
	best.elem = c.pending.PushFront(best)
}

// hedgeThresholdLocked returns the lease age beyond which a tail lease is
// hedged (0 disables). An explicit HedgeAfter wins; the adaptive default
// needs a sample base and recomputes its quantile at most once a second.
func (c *coordinator) hedgeThresholdLocked(now time.Time) time.Duration {
	if c.opts.HedgeAfter != 0 {
		return c.opts.HedgeAfter // negative disables
	}
	const (
		minSamples = 8
		floor      = 500 * time.Millisecond
	)
	if c.durN < minSamples {
		return 0
	}
	if !c.hedgeThrAt.IsZero() && now.Sub(c.hedgeThrAt) < time.Second {
		return c.hedgeThr
	}
	samples := make([]time.Duration, c.durN)
	copy(samples, c.durs[:c.durN])
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p95 := samples[(len(samples)*95+99)/100-1]
	c.hedgeThr = max(2*p95, floor)
	c.hedgeThrAt = now
	return c.hedgeThr
}

// recordDurationLocked feeds one completed lease's grant-to-report
// duration into the hedge sample ring. Caller holds c.mu.
func (c *coordinator) recordDurationLocked(d time.Duration) {
	if d <= 0 {
		return
	}
	c.durs[c.durIdx] = d
	c.durIdx = (c.durIdx + 1) % len(c.durs)
	if c.durN < len(c.durs) {
		c.durN++
	}
}

// complete resolves a lease with its reported result. An expired lease is
// honored as long as its job has not completed elsewhere (the simulation is
// deterministic, so a slow worker's late result is the same result); the
// re-queued or re-leased copy is withdrawn. It returns false for an unknown
// lease, a cancelled job, or a job already completed; the worker discards
// the result. base, when non-empty, refreshes the reporting worker's
// last-contact time.
func (c *coordinator) complete(leaseID string, r sweep.Result, base string) bool {
	c.mu.Lock()
	now := c.opts.now()
	c.touchLocked(base, now)
	t, ok := c.leases[leaseID]
	if ok {
		delete(c.leases, leaseID)
	} else if t, ok = c.expired[leaseID]; ok {
		if t.completed || t.cancelled {
			t, ok = nil, false
		} else {
			// Withdraw the retry: the job may be queued again or already
			// re-leased to another worker.
			if t.elem != nil {
				c.pending.Remove(t.elem)
				t.elem = nil
			}
			if t.leaseID != "" {
				delete(c.leases, t.leaseID)
			}
		}
	}
	if ok {
		t.leaseID = ""
		t.completed = true
		c.purgeExpiredLocked(t)
		c.completed++
		c.recordDurationLocked(now.Sub(t.granted))
		if r.Timing != nil {
			// Stamp the server-side spans onto a copy of the worker's
			// breakdown: queue wait (enqueue to the completing lease's grant)
			// and report overhead (grant-to-report round trip net of the time
			// the worker accounted for itself, clamped — clock skew and
			// requeued leases can make the difference negative). A worker
			// that sent no Timing predates the field; its result stays bare.
			tm := *r.Timing
			tm.QueueNS = int64(t.granted.Sub(t.enqueued))
			tm.ReportNS = max(int64(now.Sub(t.granted))-tm.SimulateNS-tm.CacheNS, 0)
			r.Timing = &tm
		}
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	t.deliver(outcome{res: r.Res, err: r.Err, timing: r.Timing})
	if c.observe != nil {
		c.observe(r)
	}
	return true
}

// incident records one contained job failure against a lease. The lease is
// released (its id stays welcome for a late result — a timed-out job's
// stalled goroutine may still finish, and its result is the result) and the
// job either requeues, quarantines (incidents from QuarantineAfter distinct
// workers), or fails (attempt bound reached). It returns false only for a
// lease id the coordinator has never heard of, which is not counted; an
// incident against a job that already completed is counted but changes
// nothing.
func (c *coordinator) incident(leaseID string, inc taskIncident) bool {
	var finish *task
	var finishErr error
	c.mu.Lock()
	c.touchLocked(inc.Worker, c.opts.now())
	t, live := c.leases[leaseID]
	if live {
		delete(c.leases, leaseID)
		t.leaseID = ""
		c.expired[leaseID] = t // a late result under this lease is still welcome
		t.expired = append(t.expired, leaseID)
	} else if t = c.expired[leaseID]; t == nil {
		c.mu.Unlock()
		return false
	}
	c.incidents++
	if !t.completed && !t.cancelled {
		t.incidents = append(t.incidents, inc)
		if c.onIncident != nil {
			c.onIncident(t.sweepID, t.index, inc)
		}
		switch distinct := distinctIncidentWorkersLocked(t); {
		case distinct >= c.opts.QuarantineAfter:
			c.quarantineLocked(t)
			finish, finishErr = t, quarantineError(t, distinct)
		case live && t.attempts >= c.opts.MaxAttempts:
			// The job keeps drawing incidents on one worker (a fleet smaller
			// than the quarantine threshold): the attempt bound converts it
			// into an error row, same as exhausted leases.
			c.failed++
			t.completed = true
			c.purgeExpiredLocked(t)
			last := t.incidents[len(t.incidents)-1]
			finish, finishErr = t, fmt.Errorf("grid: %s: %d incidents without a completed lease (last %s: %s); giving up",
				t.job, len(t.incidents), last.Kind, last.Message)
		case live:
			// The incident released a live lease: requeue at the front, like
			// TTL expiry (an expired-lease incident's job is already queued
			// or re-leased).
			c.requeued++
			t.elem = c.pending.PushFront(t)
		}
	}
	c.mu.Unlock()
	if finish != nil {
		finish.deliver(outcome{err: finishErr})
	}
	return true
}

// quarantineLocked completes a task as poison: it is withdrawn from the
// queue, the lease table and the expired index, and counted. Caller holds
// c.mu and must deliver quarantineError after releasing it.
func (c *coordinator) quarantineLocked(t *task) {
	if t.elem != nil {
		c.pending.Remove(t.elem)
		t.elem = nil
	}
	if t.leaseID != "" {
		delete(c.leases, t.leaseID)
		t.leaseID = ""
	}
	t.completed = true
	c.purgeExpiredLocked(t)
	c.quarantined++
}

// seedIncidents attaches journaled incident history to a recovered task,
// reporting true when the history already crosses the quarantine
// threshold — the task has then been withdrawn and the caller must finish
// it with quarantineFinish after releasing sweep-level locks.
func (c *coordinator) seedIncidents(t *task, hist []taskIncident) bool {
	if len(hist) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.incidents = append(t.incidents, hist...)
	if distinctIncidentWorkersLocked(t) < c.opts.QuarantineAfter {
		return false
	}
	c.quarantineLocked(t)
	return true
}

// quarantineFinish delivers the deterministic quarantine outcome for a
// task seedIncidents withdrew. Callers must not hold coordinator.mu or the
// owning sweep's mutex.
func (c *coordinator) quarantineFinish(t *task) {
	t.deliver(outcome{err: quarantineError(t, distinctIncidentWorkersLocked(t))})
}

// incidentHistory returns a copy of the incidents recorded against a task,
// for snapshotting live state on graceful shutdown.
func (c *coordinator) incidentHistory(t *task) []taskIncident {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]taskIncident(nil), t.incidents...)
}

// Stats snapshots the coordinator accounting.
func (c *coordinator) Stats() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Pending:     c.pending.Len(),
		Leased:      len(c.leases),
		Expired:     len(c.expired),
		Granted:     c.granted,
		Completed:   c.completed,
		Requeued:    c.requeued,
		Failed:      c.failed,
		Incidents:   c.incidents,
		Quarantined: c.quarantined,
		Hedged:      c.hedged,
	}
}

// maxBody bounds request bodies; a full Results encoding (histograms
// included) is well under 1 MiB.
const maxBody = 32 << 20

// reqWorker resolves the worker's identity for a request: the
// worker header when present, fallback otherwise (older workers send only
// their per-loop lease label).
func reqWorker(req *http.Request, fallback string) string {
	if id := req.Header.Get(workerHeader); id != "" {
		return id
	}
	return fallback
}

func (s *Server) handleLease(w http.ResponseWriter, req *http.Request) {
	var lr LeaseRequest
	if !decodeJSON(w, req, &lr) {
		return
	}
	resp, ok := s.coord.lease(lr.Worker, reqWorker(req, lr.Worker))
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, req *http.Request) {
	var rr ResultRequest
	if !decodeJSON(w, req, &rr) {
		return
	}
	if rr.Result.Res == nil && rr.Result.Err == nil {
		// A result must carry a payload or a cause; accepting neither
		// would surface as a nil dereference in the sinks.
		http.Error(w, "result carries neither res nor err", http.StatusBadRequest)
		return
	}
	if !s.coord.complete(rr.LeaseID, rr.Result, reqWorker(req, "")) {
		http.Error(w, "unknown or expired lease", http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleIncident(w http.ResponseWriter, req *http.Request) {
	var ir IncidentRequest
	if !decodeJSON(w, req, &ir) {
		return
	}
	if !validIncidentKind(ir.Kind) {
		http.Error(w, fmt.Sprintf("unknown incident kind %q", ir.Kind), http.StatusBadRequest)
		return
	}
	worker := reqWorker(req, ir.Worker)
	if worker == "" {
		http.Error(w, "incident names no worker", http.StatusBadRequest)
		return
	}
	if !s.coord.incident(ir.LeaseID, taskIncident{Worker: worker, Kind: ir.Kind, Message: ir.Message}) {
		http.Error(w, "unknown lease", http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// sumHeader carries a CRC32-IEEE checksum (lowercase hex) of the JSON
// body, on requests and responses alike. TCP checksums are weak and a
// fault-injecting proxy (or chaos test) can flip a byte that still parses
// as valid JSON — silently corrupting a result. Peers that predate the
// header simply omit it and are accepted unverified.
const sumHeader = "X-Safespec-Sum"

func bodySum(b []byte) string {
	return strconv.FormatUint(uint64(crc32.ChecksumIEEE(b)), 16)
}

// decodeJSON reads a request body into v, writing the error response and
// returning false when the body is unreadable, damaged or malformed.
func decodeJSON(w http.ResponseWriter, req *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBody))
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if sum := req.Header.Get(sumHeader); sum != "" && sum != bodySum(body) {
		// 503, not 400: the sender's copy is intact and a retry with fresh
		// bytes will succeed — a 4xx would make a worker discard a finished
		// result over a transit fault.
		http.Error(w, "body checksum mismatch (damaged in transit)", http.StatusServiceUnavailable)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(sumHeader, bodySum(b))
	w.Write(b)
}
