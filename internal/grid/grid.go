// Package grid shards a sweep.Job matrix across worker processes over HTTP.
// A Server owns every submitted job from enqueue to logged result and
// leases each one to the next polling Worker; a RemoteExecutor hands
// sweep.Run the streamed results, so the run's deterministic in-order sink
// delivery keeps JSONL/CSV output of a distributed sweep byte-identical to
// a local run. A lease that is not completed before its TTL (worker crash,
// network partition) is re-queued and handed to another worker — but a slow
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
//	                                   (no job: the leased one is recorded; a sent job is ignored)
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
	"time"

	"safespec/internal/sweep"
)

// LeaseRequest asks the server for one job.
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
// (if any) as a string; it is a final outcome, not a retry trigger. A
// worker leaves Result.Job zero, so the job is not sent; the server
// records the job it leased and ignores one an older worker still sends.
type ResultRequest struct {
	LeaseID string       `json:"lease_id"`
	Result  sweep.Result `json:"result"`
}

// Snapshot is the lease accounting, served at /v1/stats. Expired counts
// timed-out leases still waiting for a late result; it returns to zero as
// their jobs complete, fail, or are abandoned, so a persistent server holds
// steady memory across sweeps.
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

// task is one job of a submitted sweep, from enqueue until its result is
// logged. It stays in its sweep's slots after that, for the status page and
// the snapshot.
type task struct {
	index     int
	job       sweep.Job
	st        *sweepState // owning sweep
	attempts  int
	leaseID   string        // non-empty while leased
	deadline  time.Time     // lease expiry while leased
	enqueued  time.Time     // when the job entered the queue (queue-wait span)
	granted   time.Time     // most recent lease grant (report-overhead span)
	elem      *list.Element // position in pending while queued
	expired   []string      // this task's entries in Server.expired
	completed bool          // outcome decided (exactly once)
	logged    bool          // result appended to the sweep's completion log
	cancelled bool          // the owning sweep was closed or abandoned

	worker    string         // base worker id of the most recent grant
	incidents []taskIncident // contained failures reported against this job
	hedged    bool           // a duplicate tail lease was issued (once per task)
}

// withdrawLocked takes t out of the queue, the lease table and the
// expired-lease index. Once a job is terminal — completed, failed, or
// abandoned — a late result can no longer be used, and keeping its expired
// entries would leak one per lease expiry for the life of a persistent
// server. Caller holds s.mu.
func (s *Server) withdrawLocked(t *task) {
	if t.elem != nil {
		s.pending.Remove(t.elem)
		t.elem = nil
	}
	if t.leaseID != "" {
		delete(s.leases, t.leaseID)
		t.leaseID = ""
	}
	for _, id := range t.expired {
		delete(s.expired, id)
	}
	t.expired = nil
}

// failLocked completes t with an error result, logged at once (an error
// row is cheap to encode). Caller holds s.mu and has counted the failure.
func (s *Server) failLocked(t *task, err error) {
	t.completed = true
	s.withdrawLocked(t)
	s.logLocked(t, encodeResult(sweep.Result{Index: t.index, Job: t.job, Err: err}), nil)
}

// requeueExpiredLocked re-queues every lease past its deadline, failing
// the tasks that exhausted their attempts instead. It runs under s.mu on
// each lease poll: expiry needs no timer goroutine, because a lost job only
// matters when some worker is alive to take it.
func (s *Server) requeueExpiredLocked(now time.Time) {
	for id, t := range s.leases {
		if now.Before(t.deadline) {
			continue
		}
		if t.attempts >= s.opts.MaxAttempts {
			s.failed++
			s.failLocked(t, fmt.Errorf("grid: %s: lease lost %d times (worker crash or partition); giving up",
				t.job, t.attempts))
			continue
		}
		delete(s.leases, id)
		t.leaseID = ""
		s.expired[id] = t // a late result under this lease is still welcome
		t.expired = append(t.expired, id)
		s.requeued++
		t.elem = s.pending.PushFront(t) // retries jump the queue
	}
}

// lease hands the oldest pending job to a worker (none while draining).
// worker labels the lease id (free-form, typically "id/loop"); base is the
// worker's identity for the holder rule: a retried job — requeued after an
// incident or an expired lease, or hedged — is not granted back to the
// worker that last held it while another worker is live. When the queue is
// empty but leases remain, the poll may hedge a stalled tail lease (see
// maybeHedgeLocked) and immediately grant the duplicate.
func (s *Server) lease(worker, base string) (LeaseResponse, bool) {
	if s.draining.Load() {
		return LeaseResponse{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.now()
	s.touchLocked(base, now)
	s.requeueExpiredLocked(now)
	if s.pending.Len() == 0 {
		s.maybeHedgeLocked(now)
	}
	for e := s.pending.Front(); e != nil; e = e.Next() {
		t := e.Value.(*task)
		if t.attempts > 0 && t.worker == base && s.anyOtherLiveLocked(base, now) {
			// A retry exists to get away from the worker that failed, lost
			// or stalled on the job, and a poison job needs a second worker
			// to be quarantined; hand it to someone else while someone else
			// is live. A one-worker fleet still gets it back, or the job
			// would stall.
			continue
		}
		s.pending.Remove(e)
		t.elem = nil
		s.seq++
		t.leaseID = fmt.Sprintf("%s-%d", worker, s.seq)
		t.deadline = now.Add(s.opts.LeaseTTL)
		t.granted = now
		t.worker = base
		t.attempts++
		s.granted++
		s.leases[t.leaseID] = t
		return LeaseResponse{
			LeaseID: t.leaseID,
			Index:   t.index,
			Job:     t.job,
			TTLMS:   s.opts.LeaseTTL.Milliseconds(),
			SweepID: t.st.id,
		}, true
	}
	return LeaseResponse{}, false
}

// maybeHedgeLocked issues at most one duplicate lease against the oldest
// stalled tail lease: the lease id moves to the expired index (the
// original holder's late result is still welcome — first report wins, the
// loser's gets 409 and is discarded, so output stays byte-identical) and
// the task re-enters the queue front for the polling worker to take.
// Caller holds s.mu and has verified the queue is empty.
func (s *Server) maybeHedgeLocked(now time.Time) {
	if len(s.leases) == 0 {
		return
	}
	thr := s.hedgeThresholdLocked(now)
	if thr <= 0 {
		return
	}
	var best *task
	var bestID string
	for id, t := range s.leases {
		if t.hedged || t.attempts >= s.opts.MaxAttempts {
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
	delete(s.leases, bestID)
	s.expired[bestID] = best
	best.expired = append(best.expired, bestID)
	best.leaseID = ""
	best.hedged = true
	s.hedged++
	best.elem = s.pending.PushFront(best)
}

// hedgeThresholdLocked returns the lease age beyond which a tail lease is
// hedged (0 disables). An explicit HedgeAfter wins; the adaptive default
// needs a sample base and recomputes its quantile at most once a second.
func (s *Server) hedgeThresholdLocked(now time.Time) time.Duration {
	if s.opts.HedgeAfter != 0 {
		return s.opts.HedgeAfter // negative disables
	}
	const (
		minSamples = 8
		floor      = 500 * time.Millisecond
	)
	if s.durN < minSamples {
		return 0
	}
	if !s.hedgeThrAt.IsZero() && now.Sub(s.hedgeThrAt) < time.Second {
		return s.hedgeThr
	}
	samples := make([]time.Duration, s.durN)
	copy(samples, s.durs[:s.durN])
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p95 := samples[(len(samples)*95+99)/100-1]
	s.hedgeThr = max(2*p95, floor)
	s.hedgeThrAt = now
	return s.hedgeThr
}

// recordDurationLocked feeds one completed lease's grant-to-report
// duration into the hedge sample ring. Caller holds s.mu.
func (s *Server) recordDurationLocked(d time.Duration) {
	if d <= 0 {
		return
	}
	s.durs[s.durIdx] = d
	s.durIdx = (s.durIdx + 1) % len(s.durs)
	if s.durN < len(s.durs) {
		s.durN++
	}
}

// complete resolves a lease with its reported result's timing, returning
// the task and a copy of the timing stamped with the server-side spans. An
// expired lease is honored as long as its job has not completed elsewhere
// (the simulation is deterministic, so a slow worker's late result is the
// same result); the re-queued or re-leased copy is withdrawn. It returns a
// nil task for an unknown lease, a cancelled job, or a job already
// completed; the worker discards the result. base, when non-empty,
// refreshes the reporting worker's last-contact time.
func (s *Server) complete(leaseID string, tm *sweep.Timing, base string) (*task, *sweep.Timing) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.now()
	s.touchLocked(base, now)
	t, ok := s.leases[leaseID]
	if !ok {
		t, ok = s.expired[leaseID]
		ok = ok && !t.completed && !t.cancelled
	}
	if !ok {
		return nil, nil
	}
	s.withdrawLocked(t)
	t.completed = true
	s.completed++
	s.recordDurationLocked(now.Sub(t.granted))
	if tm != nil {
		// Stamp the server-side spans onto a copy of the worker's
		// breakdown: queue wait (enqueue to the completing lease's grant)
		// and report overhead (grant-to-report round trip net of the time
		// the worker accounted for itself, clamped — clock skew and
		// requeued leases can make the difference negative). A worker that
		// sent no Timing predates the field; its result stays bare.
		stamped := *tm
		stamped.QueueNS = int64(t.granted.Sub(t.enqueued))
		stamped.ReportNS = max(int64(now.Sub(t.granted))-stamped.SimulateNS-stamped.CacheNS, 0)
		tm = &stamped
	}
	return t, tm
}

// report completes a lease with a worker's result: the lease resolves
// under s.mu, the result is encoded outside it, and the bytes are logged
// and journaled under it again. It reports false when complete finds no
// task.
func (s *Server) report(leaseID string, r sweep.Result, base string) bool {
	t, tm := s.complete(leaseID, r.Timing, base)
	if t == nil {
		return false
	}
	s.observe(tm)
	enc := encodeResult(sweep.Result{Index: t.index, Job: t.job, Res: r.Res, Err: r.Err, Timing: tm})
	s.mu.Lock()
	s.logLocked(t, enc, tm)
	s.mu.Unlock()
	return true
}

// incident records one contained job failure against a lease. The lease is
// released (its id stays welcome for a late result — a timed-out job's
// stalled goroutine may still finish, and its result is the result) and the
// job either requeues, quarantines (incidents from QuarantineAfter distinct
// workers), or fails (attempt bound reached). It returns false only for a
// lease id the server has never heard of, which is not counted; an
// incident against a job that already completed is counted but changes
// nothing.
func (s *Server) incident(leaseID string, inc taskIncident) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked(inc.Worker, s.opts.now())
	t, live := s.leases[leaseID]
	if live {
		delete(s.leases, leaseID)
		t.leaseID = ""
		s.expired[leaseID] = t // a late result under this lease is still welcome
		t.expired = append(t.expired, leaseID)
	} else if t = s.expired[leaseID]; t == nil {
		return false
	}
	s.incidents++
	if t.completed || t.cancelled {
		return true
	}
	t.incidents = append(t.incidents, inc)
	// Journal the incident so a poison job's quarantine history survives a
	// restart.
	s.journal(journalRecord{Op: opIncident, Sweep: t.st.id, Index: t.index,
		Worker: inc.Worker, Kind: inc.Kind, Message: inc.Message})
	if s.quarantineLocked(t) {
		return true
	}
	switch {
	case live && t.attempts >= s.opts.MaxAttempts:
		// The job keeps drawing incidents on one worker (a fleet smaller
		// than the quarantine threshold): the attempt bound converts it
		// into an error row, same as exhausted leases.
		s.failed++
		last := t.incidents[len(t.incidents)-1]
		s.failLocked(t, fmt.Errorf("grid: %s: %d incidents without a completed lease (last %s: %s); giving up",
			t.job, len(t.incidents), last.Kind, last.Message))
	case live:
		// The incident released a live lease: requeue at the front, like
		// TTL expiry (an expired-lease incident's job is already queued or
		// re-leased).
		s.requeued++
		t.elem = s.pending.PushFront(t)
	}
	return true
}

// quarantineLocked completes t as poison when incidents from
// QuarantineAfter distinct workers stand against it, reporting whether it
// did. Caller holds s.mu.
func (s *Server) quarantineLocked(t *task) bool {
	distinct := distinctIncidentWorkers(t)
	if distinct < s.opts.QuarantineAfter {
		return false
	}
	s.quarantined++
	s.failLocked(t, quarantineError(t, distinct))
	return true
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
	resp, ok := s.lease(lr.Worker, reqWorker(req, lr.Worker))
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
	if !s.report(rr.LeaseID, rr.Result, reqWorker(req, "")) {
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
	if !s.incident(ir.LeaseID, taskIncident{Worker: worker, Kind: ir.Kind, Message: ir.Message}) {
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
	writeBody(w, b)
}

// writeBody sends b, already encoded JSON, with its checksum header.
func writeBody(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(sumHeader, bodySum(b))
	w.Write(b)
}

// encodeResult is the one encoding of a delivered result; calling
// MarshalJSON skips the compacting re-scan json.Marshal adds. A result that
// cannot be encoded is delivered as an error saying why.
func encodeResult(r sweep.Result) json.RawMessage {
	b, err := r.MarshalJSON()
	if err != nil {
		b, _ = sweep.Result{Index: r.Index, Job: r.Job, Err: fmt.Errorf("grid: encode result: %w", err)}.MarshalJSON()
	}
	return b
}

// quote is s as a JSON string, as json.Marshal writes it.
func quote(s string) []byte {
	q, _ := json.Marshal(s)
	return q
}
