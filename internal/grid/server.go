package grid

import (
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

// Server is a persistent grid coordinator: it owns a coordinator for the
// worker fleet and adds a sweep-submission API, so many sequential (or
// concurrent) sweeps can share one long-lived worker fleet across
// safespec-bench restarts. Every /v1/* endpoint — worker- and
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
// withdrawn from the queue and all of its state — including the
// coordinator's expired-lease entries — is freed, so the server holds
// steady memory over days of operation.
type Server struct {
	opts  ServerOptions
	coord *coordinator
	auth  *authenticator
	// reg renders /metrics: registry-owned histograms observe live job
	// timing, while the counter/gauge families mirror Stats() at scrape
	// time through an OnCollect hook.
	reg *obs.Registry

	// store, when non-nil, journals every sweep mutation so a restart
	// resumes where this process left off. Set once by OpenState before
	// Handler serves; handlers read it without s.mu.
	store *stateStore
	// draining flips on Drain(): leases stop, long-polls return
	// immediately, and drainCh wakes parked result polls.
	draining atomic.Bool
	drainCh  chan struct{}

	authFailures    atomic.Uint64
	resultsStreamed atomic.Uint64

	mu        sync.Mutex
	sweeps    map[string]*sweepState
	byNonce   map[string]string // submission nonce -> sweep id, for retried POSTs
	lastGC    time.Time
	submitted uint64
	abandoned uint64
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
	// Lease configures the embedded coordinator (TTL, attempt bound).
	Lease Options
	// SweepTTL abandons a sweep whose client has neither submitted jobs nor
	// polled results for this long (default 10 minutes). Live clients
	// long-poll far more often than that.
	SweepTTL time.Duration
	// Log receives the server's structured progress records (nil discards
	// them).
	Log *slog.Logger
	// now is a test seam for the sweep liveness clock.
	now func() time.Time
}

// ServerSnapshot extends the coordinator accounting with sweep-level state.
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

// sweepState tracks one submitted sweep. Its mutex is ordered before the
// coordinator's: handlers take sweepState.mu then enqueue/abandon (which
// take coordinator.mu), while result delivery takes sweepState.mu only
// after coordinator.mu has been released.
type sweepState struct {
	id     string
	nonce  string       // submission nonce, purged from Server.byNonce with the sweep
	tenant *tenantState // owner; foreign tenants get 404 for this id

	mu        sync.Mutex
	slots     map[int]*slot
	log       []sweep.Result // completed results in completion order
	logGrew   chan struct{}  // closed and replaced on every log append
	completed int
	spans     sweep.Timing // summed Timing across the timed results
	timed     int          // results that carried a Timing
	created   time.Time
	lastSeen  time.Time
	closed    bool
}

// slot is one job of a sweep: its queued task while live, its result once
// delivered. job is retained for the status page after the task is gone.
type slot struct {
	job  sweep.Job
	task *task
	res  *sweep.Result
}

// maxPollWait caps the long-poll duration a client may request.
const maxPollWait = time.Minute

// NewServer builds a persistent coordinator server with defaults applied.
func NewServer(opts ServerOptions) *Server {
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
		coord:   newCoordinator(opts.Lease),
		auth:    newAuthenticator(tenants),
		sweeps:  make(map[string]*sweepState),
		byNonce: make(map[string]string),
		drainCh: make(chan struct{}),
	}
	s.reg = s.newRegistry()
	// Journal every accepted incident so a poison job's quarantine history
	// survives a restart (hook runs under coordinator.mu; the store's mutex
	// is the innermost lock, so the append is safe there).
	s.coord.onIncident = func(sweepID string, index int, inc taskIncident) {
		s.journal(journalRecord{Op: opIncident, Sweep: sweepID, Index: index,
			Worker: inc.Worker, Kind: inc.Kind, Message: inc.Message})
	}
	return s
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
// re-enter the coordinator queue — their leases died with the previous
// process. Caller holds s.mu; returns the number of requeued jobs.
func (s *Server) adoptLocked(rs recoveredSweep, tenant *tenantState) int {
	now := s.opts.now()
	st := &sweepState{
		id:       rs.ID,
		nonce:    rs.Nonce,
		tenant:   tenant,
		slots:    make(map[int]*slot, len(rs.Jobs)),
		logGrew:  make(chan struct{}),
		created:  now,
		lastSeen: now,
	}
	st.mu.Lock()
	for i := range rs.Log {
		res := rs.Log[i]
		st.slots[res.Index] = &slot{job: res.Job, res: &res}
		st.log = append(st.log, res)
		st.completed++
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
	// here instead of burning a fresh set of workers. The finish must wait
	// until st.mu is released: delivery takes it.
	var quarantined []*task
	for _, idx := range requeue {
		s.enqueueSlotLocked(st, idx, rs.Jobs[idx])
		if hist := rs.Incidents[idx]; len(hist) > 0 {
			if t := st.slots[idx].task; s.coord.seedIncidents(t, hist) {
				quarantined = append(quarantined, t)
			}
		}
	}
	st.mu.Unlock()
	for _, t := range quarantined {
		s.coord.quarantineFinish(t)
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
		st.mu.Lock()
		ss := sweepSnapshot{ID: st.id, Nonce: st.nonce, Tenant: st.tenant.Name,
			Log: append([]sweep.Result(nil), st.log...)}
		for idx, sl := range st.slots {
			ss.Jobs = append(ss.Jobs, jobEntry{Index: idx, Job: sl.job})
			if sl.res == nil && sl.task != nil {
				// Unfinished jobs carry their incident history forward, so a
				// graceful restart cannot reset a poison job's quarantine
				// progress.
				for _, ti := range s.coord.incidentHistory(sl.task) {
					ss.Incidents = append(ss.Incidents, incidentEntry{
						Index: idx, Worker: ti.Worker, Kind: ti.Kind, Message: ti.Message})
				}
			}
		}
		st.mu.Unlock()
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

// Drain puts the server into shutdown mode: the coordinator stops
// granting leases (workers see an idle queue, not an error) and parked
// result long-polls return their current batch immediately, so in-flight
// client requests finish inside the drain deadline instead of holding the
// HTTP server open for a full poll window.
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		s.coord.drain()
		close(s.drainCh)
	}
}

// Stats snapshots the server and its embedded coordinator.
func (s *Server) Stats() ServerSnapshot {
	snap := s.coord.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ServerSnapshot{
		Snapshot:        snap,
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

// Handler returns the full authenticated HTTP surface: the coordinator's
// worker endpoints plus the sweep-submission API. Abandoned-sweep GC runs
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
				prev.mu.Lock()
				resp := SubmitResponse{SweepID: prev.id, Jobs: len(prev.slots)}
				prev.lastSeen = s.opts.now()
				prev.mu.Unlock()
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
	now := s.opts.now()
	st := &sweepState{
		id:       "s-" + newNonce()[:16],
		nonce:    sr.Nonce,
		tenant:   tenant,
		slots:    make(map[int]*slot, len(sr.Jobs)),
		logGrew:  make(chan struct{}),
		created:  now,
		lastSeen: now,
	}
	s.journal(journalRecord{Op: opOpen, Sweep: st.id, Nonce: sr.Nonce, Tenant: tenant.Name})
	for i, j := range sr.Jobs {
		s.addJob(st, i, j)
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
	if !s.addJob(st, jr.Index, jr.Job) {
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
		st.mu.Lock()
		if after > len(st.log) {
			// A cursor past the log cannot come from this sweep's own
			// history (batches only ever advance Next to the log length):
			// the client is confused, and silently waiting would hang it.
			n := len(st.log)
			st.mu.Unlock()
			http.Error(w, fmt.Sprintf("after cursor %d beyond completion log (%d results)", after, n),
				http.StatusBadRequest)
			return
		}
		if len(st.log) > after || time.Now().After(deadline) || wait <= 0 || s.draining.Load() {
			batch := ResultBatch{
				SweepID:   st.id,
				Next:      len(st.log),
				Results:   st.log[after:len(st.log):len(st.log)],
				Submitted: len(st.slots),
				Completed: st.completed,
				Done:      len(st.slots) > 0 && st.completed == len(st.slots),
			}
			st.mu.Unlock()
			s.resultsStreamed.Add(uint64(len(batch.Results)))
			writeJSON(w, batch)
			return
		}
		grew := st.logGrew
		st.mu.Unlock()
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
	if ok && st.tenant != tenant {
		st, ok = nil, false // foreign sweep: indistinguishable from absent
	}
	if ok {
		s.releaseLocked(st)
	}
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	submitted, completed := s.abandonSweep(st)
	s.opts.Log.Info("sweep closed", "sweep", id, "completed", completed, "submitted", submitted)
	w.WriteHeader(http.StatusOK)
}

// releaseLocked removes a sweep from the server's indexes. Caller holds
// s.mu.
func (s *Server) releaseLocked(st *sweepState) {
	s.journal(journalRecord{Op: opClose, Sweep: st.id})
	delete(s.sweeps, st.id)
	if st.nonce != "" {
		delete(s.byNonce, st.nonce)
	}
}

// lookup resolves a sweep id for a tenant and refreshes its liveness
// clock. A foreign tenant's sweep resolves to nil — the same 404 an
// unknown id gets — so sweep ids never leak across tenants.
func (s *Server) lookup(id string, tenant *tenantState) *sweepState {
	s.mu.Lock()
	st := s.sweeps[id]
	if st != nil && st.tenant != tenant {
		st = nil
	}
	s.mu.Unlock()
	if st != nil {
		st.mu.Lock()
		st.lastSeen = s.opts.now()
		st.mu.Unlock()
	}
	return st
}

// addJob enqueues one job of a sweep onto the shared coordinator queue,
// wiring its terminal outcome back into the sweep's slot and completion
// log. It reports false when the sweep has been closed or abandoned in the
// meantime — the caller must not tell the client the job was accepted.
func (s *Server) addJob(st *sweepState, index int, job sweep.Job) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false
	}
	if _, dup := st.slots[index]; dup {
		return true // idempotent resubmission
	}
	s.journal(journalRecord{Op: opJob, Sweep: st.id, Index: index, Job: &job})
	s.enqueueSlotLocked(st, index, job)
	return true
}

// enqueueSlotLocked creates the slot for one job and queues it on the
// shared coordinator. Caller holds st.mu. The delivery closure journals
// the result inside the same st.mu critical section that appends it to
// the in-memory completion log, so journal order always equals log order
// and a cursor a client held before a crash indexes the recovered log
// identically.
func (s *Server) enqueueSlotLocked(st *sweepState, index int, job sweep.Job) {
	sl := &slot{job: job}
	st.slots[index] = sl
	sl.task = s.coord.enqueue(index, job, st.id, func(out outcome) {
		res := &sweep.Result{Index: index, Job: job, Res: out.res, Err: out.err, Timing: out.timing}
		st.mu.Lock()
		sl.res = res
		st.completed++
		if out.timing != nil {
			st.spans.Add(*out.timing)
			st.timed++
		}
		s.journal(journalRecord{Op: opResult, Sweep: st.id, Result: res})
		st.log = append(st.log, *res)
		if st.logGrew != nil {
			close(st.logGrew) // wake every batch long-poll
			st.logGrew = make(chan struct{})
		}
		st.mu.Unlock()
	})
}

// abandonSweep withdraws a sweep's unfinished jobs from the coordinator
// (which also purges their expired-lease entries) and reports its final
// submitted/completed counts.
func (s *Server) abandonSweep(st *sweepState) (submitted, completed int) {
	st.mu.Lock()
	st.closed = true
	var live []*task
	for _, sl := range st.slots {
		if sl.res == nil && sl.task != nil {
			live = append(live, sl.task)
		}
	}
	submitted, completed = len(st.slots), st.completed
	st.mu.Unlock()
	for _, t := range live {
		s.coord.abandon(t)
	}
	return submitted, completed
}

// gc abandons sweeps whose client has gone silent past SweepTTL. It runs
// lazily on request arrival, mirroring the coordinator's lease expiry: an
// orphan sweep only needs collecting while the server is alive to serve.
// Scans are rate-limited to once per second — idle expiry is measured in
// minutes, and the worker fleet's lease polls should not pay an O(sweeps)
// lock walk each time.
func (s *Server) gc(now time.Time) {
	var drop []*sweepState
	s.mu.Lock()
	if now.Sub(s.lastGC) < time.Second {
		s.mu.Unlock()
		return
	}
	s.lastGC = now
	for _, st := range s.sweeps {
		st.mu.Lock()
		idle := now.Sub(st.lastSeen)
		st.mu.Unlock()
		if idle > s.opts.SweepTTL {
			s.releaseLocked(st)
			s.abandoned++
			drop = append(drop, st)
		}
	}
	s.mu.Unlock()
	for _, st := range drop {
		submitted, completed := s.abandonSweep(st)
		s.opts.Log.Warn("sweep abandoned", "sweep", st.id, "idle", s.opts.SweepTTL.String(),
			"completed", completed, "submitted", submitted)
	}
}
