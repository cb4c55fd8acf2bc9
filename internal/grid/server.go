package grid

import (
	"container/list"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"safespec/internal/obs"
	"safespec/internal/sweep"
)

// Server is a persistent grid coordinator: the one owner of a job's life
// — submit, queue, lease, report and completion log — under one mutex, so
// many sequential (or concurrent) sweeps can share one long-lived worker
// fleet across safespec-bench restarts. Every /v1/* endpoint — worker- and
// client-facing alike — is guarded by bearer auth: each token resolves (in
// constant time) to a named tenant, and an unknown token gets 401.
//
// A sweep is created by POST /v1/sweeps (optionally carrying the whole job
// matrix), grown by POST /v1/sweeps/{id}/jobs, and released by DELETE.
// Results are delivered as batches: GET /v1/sweeps/{id}/results?after=N
// long-polls the completion log and returns every result that finished
// since cursor N, so a client needs one in-flight request per sweep, not
// one per cell. A sweep belongs to the tenant that submitted it; other
// tenants' requests for its id get 404, indistinguishable from a sweep
// that never existed. A sweep whose client stops polling (a crashed
// bench process) is abandoned after SweepTTL: its unfinished jobs are
// withdrawn from the queue and all of its state — including its
// expired-lease entries — is freed, so the server holds steady memory over
// days of operation.
type Server struct {
	opts ServerOptions
	auth *authenticator
	// reg renders /metrics: the span histograms observe live job timing,
	// while the counter/gauge families mirror Stats() at scrape time
	// through an OnCollect hook.
	reg   *obs.Registry
	spans spanHistograms

	// store, when non-nil, journals every sweep mutation so a restart
	// resumes where this process left off. Set once by OpenState before
	// Handler serves. Its mutex is the only lock taken under s.mu.
	store *stateStore
	// draining flips on Drain(): leases stop (workers see an empty queue
	// and idle, while results for granted leases are still accepted),
	// long-polls return immediately, and drainCh wakes parked result polls.
	draining atomic.Bool
	drainCh  chan struct{}

	authFailures    atomic.Uint64
	resultsStreamed atomic.Uint64
	// lastGC is the unix-nano time of the last abandoned-sweep scan; it is
	// read without s.mu so requests between scans never take the lock for
	// gc.
	lastGC atomic.Int64

	mu        sync.Mutex
	sweeps    map[string]*sweepState
	byNonce   map[string]string // submission nonce -> sweep id, for retried POSTs
	submitted uint64
	abandoned uint64

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

// ServerOptions configures a Server.
type ServerOptions struct {
	// Token is the single-tenant shorthand: it behaves exactly like a
	// Tenants list holding one tenant named "default". Ignored when
	// Tenants is non-empty; "" with no Tenants disables auth — loopback
	// development only.
	Token string
	// Tenants maps per-client tokens to named tenants (see Tenant and
	// LoadTenants).
	Tenants []Tenant
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
	// SweepTTL abandons a sweep whose client has neither submitted jobs nor
	// polled results for this long (default 10 minutes). Live clients
	// long-poll far more often than that.
	SweepTTL time.Duration
	// Log receives the server's structured progress records (nil discards
	// them).
	Log *slog.Logger
	// now is a test seam for the lease and sweep liveness clocks.
	now func() time.Time
}

// ServerSnapshot extends the lease accounting with sweep-level state.
type ServerSnapshot struct {
	Snapshot
	// Sweeps counts sweeps currently held in memory.
	Sweeps int `json:"sweeps"`
	// SweepsSubmitted and SweepsAbandoned count lifetime submissions and
	// TTL-expired abandonments.
	SweepsSubmitted uint64 `json:"sweeps_submitted"`
	SweepsAbandoned uint64 `json:"sweeps_abandoned"`
	// AuthFailures counts requests rejected with 401.
	AuthFailures uint64 `json:"auth_failures"`
	// ResultsStreamed counts results delivered through batch responses.
	ResultsStreamed uint64 `json:"results_streamed"`
	// Tenants is the per-tenant accounting, sorted by name (omitted when
	// auth is disabled).
	Tenants []TenantSnapshot `json:"tenants,omitempty"`
}

// TenantSnapshot is one tenant's accounting within a ServerSnapshot.
type TenantSnapshot struct {
	Name     string `json:"name"`
	Requests uint64 `json:"requests"`
}

// SubmitRequest opens a sweep, optionally enqueueing its whole job matrix
// (element position = job index). An empty Jobs slice opens a sweep for
// incremental submission via POST /v1/sweeps/{id}/jobs — the path taken
// when a client-side result cache filters the matrix down to its misses.
type SubmitRequest struct {
	Jobs []sweep.Job `json:"jobs,omitempty"`
	// Nonce deduplicates retried submissions: POST /v1/sweeps is otherwise
	// not idempotent, and a client whose 200 was lost in transit would
	// open a duplicate sweep whose jobs the fleet executes for nothing. A
	// coordinator that already holds a sweep for this nonce returns it
	// instead of creating another.
	Nonce string `json:"nonce,omitempty"`
}

// SubmitResponse identifies the created sweep.
type SubmitResponse struct {
	SweepID string `json:"sweep_id"`
	Jobs    int    `json:"jobs"`
}

// JobRequest adds one job to an open sweep. Resubmitting an index is a
// no-op (the simulation is deterministic, so a retried submission carries
// the same job).
type JobRequest struct {
	Index int       `json:"index"`
	Job   sweep.Job `json:"job"`
}

// ResultBatch is the GET /v1/sweeps/{id}/results response: every result
// whose completion-log position is >= the request's `after` cursor, in
// completion order (NOT job-index order — the client reorders). Next is
// the cursor to pass on the following poll; an empty Results with
// Next == after means the long-poll window elapsed with nothing new.
type ResultBatch struct {
	SweepID string         `json:"sweep_id"`
	Next    int            `json:"next"`
	Results []sweep.Result `json:"results"`
	// Submitted and Completed count the sweep's jobs at response time. Done
	// reports all submitted jobs completed; with incremental submission it
	// can flicker true between batches, so it is meaningful only once the
	// client has submitted its whole matrix.
	Submitted int  `json:"submitted"`
	Completed int  `json:"completed"`
	Done      bool `json:"done"`
}

// sweepState tracks one submitted sweep, guarded by Server.mu. Entries of
// log are never changed once appended, so a log prefix sliced under the
// lock can be read after it is released.
type sweepState struct {
	id     string
	nonce  string       // submission nonce, purged from Server.byNonce with the sweep
	tenant *tenantState // owner; foreign tenants get 404 for this id

	slots    map[int]*task
	log      []json.RawMessage // completed results in completion order, encoded once
	logGrew  chan struct{}     // closed and replaced on every log append
	spans    sweep.Timing      // summed Timing across the timed results
	timed    int               // results that carried a Timing
	created  time.Time
	lastSeen time.Time
	closed   bool
}

// maxPollWait caps the long-poll duration a client may request.
const maxPollWait = time.Minute

// NewServer builds a persistent coordinator server with defaults applied.
func NewServer(opts ServerOptions) *Server {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 2 * time.Minute
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.QuarantineAfter <= 0 {
		opts.QuarantineAfter = 2
	}
	if opts.SweepTTL <= 0 {
		opts.SweepTTL = 10 * time.Minute
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	tenants := opts.Tenants
	if len(tenants) == 0 && opts.Token != "" {
		// The single -token shorthand: one tenant.
		tenants = []Tenant{{Name: "default", Token: opts.Token}}
	}
	s := &Server{
		opts:    opts,
		auth:    newAuthenticator(tenants),
		sweeps:  make(map[string]*sweepState),
		byNonce: make(map[string]string),
		drainCh: make(chan struct{}),
		pending: list.New(),
		leases:  make(map[string]*task),
		expired: make(map[string]*task),
		seen:    make(map[string]time.Time),
	}
	s.reg = s.newRegistry()
	return s
}

// newSweep builds an empty sweep's state.
func newSweep(id, nonce string, tenant *tenantState, now time.Time) *sweepState {
	return &sweepState{id: id, nonce: nonce, tenant: tenant, slots: make(map[int]*task),
		logGrew: make(chan struct{}), created: now, lastSeen: now}
}

// OpenState attaches a durable state directory (safespec-coordinator
// -state-dir): sweeps journaled by a previous process are recovered —
// completed results serve existing cursors, jobs whose leases died with
// that process re-enter the queue — and every future sweep mutation is
// journaled. Call it before Handler starts serving.
func (s *Server) OpenState(dir string) error {
	store, recovered, torn, err := openState(dir)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.store = store
	var sweeps, results, requeued, dropped int
	for _, rs := range recovered {
		tenant := s.auth.byName(rs.Tenant)
		if tenant == nil {
			// The token file changed across the restart and the owner is
			// gone. Every lookup is tenant-scoped, so an ownerless sweep
			// would be unreachable forever; drop it instead of leaking it.
			s.journal(journalRecord{Op: opClose, Sweep: rs.ID})
			dropped++
			continue
		}
		requeued += s.adoptLocked(rs, tenant)
		sweeps++
		results += len(rs.Log)
	}
	s.mu.Unlock()
	s.opts.Log.Info("state recovered", "dir", dir, "sweeps", sweeps,
		"results", results, "jobs_requeued", requeued,
		"sweeps_dropped", dropped, "torn_bytes", torn)
	return nil
}

// adoptLocked rebuilds one recovered sweep's live state: logged results
// become completed slots (the completion log in its original order so
// client cursors keep indexing correctly), and jobs without a result
// re-enter the queue — their leases died with the previous process.
// Caller holds s.mu; returns the number of requeued jobs.
func (s *Server) adoptLocked(rs recoveredSweep, tenant *tenantState) int {
	st := newSweep(rs.ID, rs.Nonce, tenant, s.opts.now())
	for _, res := range rs.Log {
		st.slots[res.Index] = &task{index: res.Index, job: res.Job, st: st, completed: true, logged: true}
		st.log = append(st.log, encodeResult(res))
		if res.Timing != nil {
			st.spans.Add(*res.Timing)
			st.timed++
		}
	}
	requeue := make([]int, 0, len(rs.Jobs))
	for idx := range rs.Jobs {
		if _, done := st.slots[idx]; !done {
			requeue = append(requeue, idx)
		}
	}
	sort.Ints(requeue) // deterministic queue order across recoveries
	// Requeued jobs inherit their journaled incident history; one whose
	// history already crosses the quarantine threshold (the crash landed
	// between the deciding incident and its result) is quarantined right
	// here instead of burning a fresh set of workers.
	for _, idx := range requeue {
		t := s.enqueueLocked(st, idx, rs.Jobs[idx])
		if hist := rs.Incidents[idx]; len(hist) > 0 {
			t.incidents = hist
			s.quarantineLocked(t)
		}
	}
	s.sweeps[st.id] = st
	if st.nonce != "" {
		s.byNonce[st.nonce] = st.id
	}
	return len(requeue)
}

// CloseState folds the journal into a final snapshot and closes the state
// store (the graceful half of shutdown; kill -9 skips it and replays the
// journal instead). The server must no longer be mutating sweeps.
func (s *Server) CloseState() error {
	s.mu.Lock()
	store := s.store
	if store == nil {
		s.mu.Unlock()
		return nil
	}
	sweeps := make([]sweepSnapshot, 0, len(s.sweeps))
	for _, st := range s.sweeps {
		ss := sweepSnapshot{ID: st.id, Nonce: st.nonce, Tenant: st.tenant.Name,
			Log: append([]json.RawMessage(nil), st.log...)}
		for idx, t := range st.slots {
			ss.Jobs = append(ss.Jobs, jobEntry{Index: idx, Job: t.job})
			if !t.logged {
				// Unfinished jobs carry their incident history forward, so a
				// graceful restart cannot reset a poison job's quarantine
				// progress.
				for _, ti := range t.incidents {
					ss.Incidents = append(ss.Incidents, incidentEntry{
						Index: idx, Worker: ti.Worker, Kind: ti.Kind, Message: ti.Message})
				}
			}
		}
		sort.Slice(ss.Jobs, func(i, j int) bool { return ss.Jobs[i].Index < ss.Jobs[j].Index })
		sort.Slice(ss.Incidents, func(i, j int) bool {
			a, b := ss.Incidents[i], ss.Incidents[j]
			if a.Index != b.Index {
				return a.Index < b.Index
			}
			return a.Worker < b.Worker
		})
		sweeps = append(sweeps, ss)
	}
	s.mu.Unlock()
	sort.Slice(sweeps, func(i, j int) bool { return sweeps[i].ID < sweeps[j].ID })
	return store.close(sweeps)
}

// journal appends one mutation when a state store is attached. Failures
// degrade durability, not the running process — the in-memory state stays
// authoritative — so they are logged rather than failing the request.
func (s *Server) journal(rec journalRecord) {
	if s.store == nil {
		return
	}
	if err := s.store.append(rec); err != nil {
		s.opts.Log.Error("journal append failed", "op", rec.Op, "sweep", rec.Sweep, "err", err.Error())
	}
}

// Drain puts the server into shutdown mode: lease grants stop (workers see
// an idle queue, not an error) and parked result long-polls return their
// current batch immediately, so in-flight client requests finish inside
// the drain deadline instead of holding the HTTP server open for a full
// poll window.
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
}

// Stats snapshots the server's lease and sweep accounting.
func (s *Server) Stats() ServerSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ServerSnapshot{
		Snapshot: Snapshot{
			Pending:     s.pending.Len(),
			Leased:      len(s.leases),
			Expired:     len(s.expired),
			Granted:     s.granted,
			Completed:   s.completed,
			Requeued:    s.requeued,
			Failed:      s.failed,
			Incidents:   s.incidents,
			Quarantined: s.quarantined,
			Hedged:      s.hedged,
		},
		Sweeps:          len(s.sweeps),
		SweepsSubmitted: s.submitted,
		SweepsAbandoned: s.abandoned,
		AuthFailures:    s.authFailures.Load(),
		ResultsStreamed: s.resultsStreamed.Load(),
	}
	for _, ts := range s.auth.tenants {
		out.Tenants = append(out.Tenants, TenantSnapshot{Name: ts.Name, Requests: ts.requests.Load()})
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Name < out.Tenants[j].Name })
	return out
}

// Handler returns the full authenticated HTTP surface: the worker
// endpoints plus the sweep-submission API. Abandoned-sweep GC runs
// lazily on every request (workers poll /v1/lease continuously, so an idle
// orphan sweep never outlives SweepTTL by much).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/result", s.handleResult)
	mux.HandleFunc("POST /v1/incident", s.handleIncident)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("POST /v1/sweeps/{id}/jobs", s.handleJob)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleClose)
	inner := s.authTenants(mux)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.gc(s.opts.now())
		inner.ServeHTTP(w, req)
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var sr SubmitRequest
	if !decodeJSON(w, req, &sr) {
		return
	}
	tenant := requestTenant(req)
	// The whole submission is one critical section (matrix enqueue is a
	// few list pushes), so a concurrent retry of the same POST either sees
	// nothing yet or the fully-populated sweep — never a partial matrix,
	// and never a duplicate sweep for one nonce.
	s.mu.Lock()
	if sr.Nonce != "" {
		if id, ok := s.byNonce[sr.Nonce]; ok {
			if prev := s.sweeps[id]; prev != nil && prev.tenant == tenant {
				// A retried submission whose first attempt did land: hand
				// back the existing sweep instead of double-running it.
				resp := SubmitResponse{SweepID: prev.id, Jobs: len(prev.slots)}
				prev.lastSeen = s.opts.now()
				s.mu.Unlock()
				writeJSON(w, resp)
				return
			}
		}
	}
	// The id is random, not sequential: a client that rides out a
	// coordinator restart must see its old sweep id stop resolving (404)
	// rather than silently adopt a sweep the restarted process assigned to
	// someone else.
	st := newSweep("s-"+newNonce()[:16], sr.Nonce, tenant, s.opts.now())
	s.journal(journalRecord{Op: opOpen, Sweep: st.id, Nonce: sr.Nonce, Tenant: tenant.Name})
	for i, j := range sr.Jobs {
		s.addJobLocked(st, i, j)
	}
	s.submitted++
	s.sweeps[st.id] = st
	if sr.Nonce != "" {
		s.byNonce[sr.Nonce] = st.id
	}
	s.mu.Unlock()
	s.opts.Log.Info("sweep opened", "sweep", st.id, "tenant", tenant.Name, "jobs", len(sr.Jobs))
	writeJSON(w, SubmitResponse{SweepID: st.id, Jobs: len(sr.Jobs)})
}

func (s *Server) handleJob(w http.ResponseWriter, req *http.Request) {
	st := s.lookup(req.PathValue("id"), requestTenant(req))
	if st == nil {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	var jr JobRequest
	if !decodeJSON(w, req, &jr) {
		return
	}
	if jr.Index < 0 {
		http.Error(w, "negative job index", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	added := s.addJobLocked(st, jr.Index, jr.Job)
	s.mu.Unlock()
	if !added {
		// The sweep was closed or abandoned between lookup and enqueue; a
		// 200 here would leave the client long-polling a job that will
		// never run.
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// handleResults is the batched streaming endpoint: it returns every result
// appended to the sweep's completion log since the `after` cursor,
// long-polling up to `wait` when the cursor is at the log's tip. One
// in-flight request per sweep therefore drains the whole matrix, however
// many cells it has.
func (s *Server) handleResults(w http.ResponseWriter, req *http.Request) {
	st := s.lookup(req.PathValue("id"), requestTenant(req))
	if st == nil {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	q := req.URL.Query()
	after := 0
	if as := q.Get("after"); as != "" {
		var err error
		if after, err = strconv.Atoi(as); err != nil || after < 0 {
			http.Error(w, "bad after cursor: "+as, http.StatusBadRequest)
			return
		}
	}
	wait, ok := parseWait(w, q.Get("wait"))
	if !ok {
		return
	}
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		n := len(st.log)
		if after > n {
			// A cursor past the log cannot come from this sweep's own
			// history (batches only ever advance Next to the log length):
			// the client is confused, and silently waiting would hang it.
			s.mu.Unlock()
			http.Error(w, fmt.Sprintf("after cursor %d beyond completion log (%d results)", after, n),
				http.StatusBadRequest)
			return
		}
		if n > after || time.Now().After(deadline) || wait <= 0 || s.draining.Load() {
			results, submitted := st.log[after:n:n], len(st.slots)
			s.mu.Unlock()
			s.resultsStreamed.Add(uint64(len(results)))
			writeBody(w, batchJSON(st.id, n, results, submitted, n))
			return
		}
		grew := st.logGrew
		s.mu.Unlock()
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-grew:
			timer.Stop()
		case <-timer.C:
		case <-s.drainCh: // shutdown: next loop returns the current batch
			timer.Stop()
		case <-req.Context().Done():
			timer.Stop()
			return
		}
	}
}

// batchJSON writes the ResultBatch of results that are already encoded,
// byte for byte as json.Marshal of the decoded batch, without encoding any
// result again. A nil results (nothing logged yet) is null, as json.Marshal
// writes a nil slice.
func batchJSON(id string, next int, results []json.RawMessage, submitted, completed int) []byte {
	b := fmt.Appendf(nil, `{"sweep_id":%s,"next":%d,"results":`, quote(id), next)
	if results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, r := range results {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, r...)
		}
		b = append(b, ']')
	}
	return fmt.Appendf(b, `,"submitted":%d,"completed":%d,"done":%t}`,
		submitted, completed, submitted > 0 && completed == submitted)
}

// parseWait parses a long-poll duration, reporting (0, false) after writing
// the error response when it is malformed.
func parseWait(w http.ResponseWriter, ws string) (time.Duration, bool) {
	if ws == "" {
		return 0, true
	}
	wait, err := time.ParseDuration(ws)
	if err != nil {
		http.Error(w, "bad wait: "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return min(wait, maxPollWait), true
}

func (s *Server) handleClose(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	tenant := requestTenant(req)
	s.mu.Lock()
	st, ok := s.sweeps[id]
	if !ok || st.tenant != tenant {
		s.mu.Unlock() // a foreign sweep is indistinguishable from an absent one
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	s.abandonLocked(st)
	submitted, completed := len(st.slots), len(st.log)
	s.mu.Unlock()
	s.opts.Log.Info("sweep closed", "sweep", id, "completed", completed, "submitted", submitted)
	w.WriteHeader(http.StatusOK)
}

// abandonLocked releases a closed sweep: it leaves the server's indexes,
// and its unfinished jobs are withdrawn from the queue, the lease table and
// the expired-lease index, so a late worker report for one gets 409 and is
// discarded. Caller holds s.mu.
func (s *Server) abandonLocked(st *sweepState) {
	s.journal(journalRecord{Op: opClose, Sweep: st.id})
	delete(s.sweeps, st.id)
	if st.nonce != "" {
		delete(s.byNonce, st.nonce)
	}
	st.closed = true
	for _, t := range st.slots {
		if !t.completed {
			t.cancelled = true
			s.withdrawLocked(t)
		}
	}
}

// lookup resolves a sweep id for a tenant and refreshes its liveness
// clock. A foreign tenant's sweep resolves to nil — the same 404 an
// unknown id gets — so sweep ids never leak across tenants.
func (s *Server) lookup(id string, tenant *tenantState) *sweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.sweeps[id]
	if st == nil || st.tenant != tenant {
		return nil
	}
	st.lastSeen = s.opts.now()
	return st
}

// addJobLocked journals and enqueues one job of a sweep. It reports false
// when the sweep has been closed or abandoned in the meantime — the caller
// must not tell the client the job was accepted. Caller holds s.mu.
func (s *Server) addJobLocked(st *sweepState, index int, job sweep.Job) bool {
	if st.closed {
		return false
	}
	if _, dup := st.slots[index]; dup {
		return true // idempotent resubmission
	}
	s.journal(journalRecord{Op: opJob, Sweep: st.id, Index: index, Job: &job})
	s.enqueueLocked(st, index, job)
	return true
}

// enqueueLocked creates the task for one job of a sweep and queues it for
// the worker fleet. Caller holds s.mu.
func (s *Server) enqueueLocked(st *sweepState, index int, job sweep.Job) *task {
	t := &task{index: index, job: job, st: st, enqueued: s.opts.now()}
	st.slots[index] = t
	t.elem = s.pending.PushBack(t)
	return t
}

// logLocked appends a completed task's encoded result to its sweep's
// completion log and journals the same bytes, in one critical section, so
// journal order always equals log order and a cursor a client held before a
// crash indexes the recovered log identically. A sweep closed while the
// result was being encoded drops it. Caller holds s.mu.
func (s *Server) logLocked(t *task, enc json.RawMessage, tm *sweep.Timing) {
	st := t.st
	if st.closed {
		return
	}
	t.logged = true
	if tm != nil {
		st.spans.Add(*tm)
		st.timed++
	}
	s.journal(journalRecord{Op: opResult, Sweep: st.id, Result: enc})
	st.log = append(st.log, enc)
	close(st.logGrew) // wake every batch long-poll
	st.logGrew = make(chan struct{})
}

// gc abandons sweeps whose client has gone silent past SweepTTL. It runs
// lazily on request arrival, mirroring lease expiry: an orphan sweep only
// needs collecting while the server is alive to serve. Scans are
// rate-limited to once per second — idle expiry is measured in minutes,
// and the worker fleet's lease polls should not pay an O(sweeps) walk, or
// even the lock, each time.
func (s *Server) gc(now time.Time) {
	last := s.lastGC.Load()
	if now.UnixNano()-last < int64(time.Second) || !s.lastGC.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	var drop []*sweepState
	s.mu.Lock()
	for _, st := range s.sweeps {
		if now.Sub(st.lastSeen) > s.opts.SweepTTL {
			s.abandonLocked(st)
			s.abandoned++
			drop = append(drop, st)
		}
	}
	s.mu.Unlock()
	for _, st := range drop { // a closed sweep no longer changes
		s.opts.Log.Warn("sweep abandoned", "sweep", st.id, "idle", s.opts.SweepTTL.String(),
			"completed", len(st.log), "submitted", len(st.slots))
	}
}
