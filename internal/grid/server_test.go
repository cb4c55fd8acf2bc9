package grid

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

// startTokenWorkers runs n in-process workers authenticating with token and
// returns a stop function that cancels and joins them.
func startTokenWorkers(t testing.TB, url, token string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Coordinator: url,
			Token:       token,
			ID:          fmt.Sprintf("tw%d", i),
			Parallel:    2,
			Poll:        5 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestServerSequentialSweeps is the tentpole acceptance property: one
// persistent Server and one worker fleet serve several sequential sweeps —
// including one submitted lazily, as a cache-wrapped executor would — each
// byte-identical to a local run, and the server returns to steady-state
// memory (no sweeps, no expired leases) after the clients close.
func TestServerSequentialSweeps(t *testing.T) {
	const token = "fleet-secret"
	jobs := smallJobs(t)

	var local bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs,
		sweep.Options{Sinks: []sweep.Sink{sweep.NewJSONL(&local)}}); err != nil {
		t.Fatal(err)
	}

	server := NewServer(ServerOptions{Token: token})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	stop := startTokenWorkers(t, srv.URL, token, 2)
	defer stop()

	for round := 0; round < 3; round++ {
		re := &RemoteExecutor{URL: srv.URL, Token: token, PollWait: 200 * time.Millisecond}
		var exec sweep.Executor = re
		if round == 2 {
			// Hide the Submitter extension, as a wrapping result cache does:
			// every job must flow through the lazy per-job submission path.
			exec = struct{ sweep.Executor }{re}
		}
		var remote bytes.Buffer
		if _, err := sweep.Run(context.Background(), jobs, sweep.Options{
			Workers:  len(jobs),
			Executor: exec,
			Sinks:    []sweep.Sink{sweep.NewJSONL(&remote)},
		}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if remote.String() != local.String() {
			t.Errorf("round %d rows differ from local:\n%s\nvs\n%s", round, remote.String(), local.String())
		}
		if err := re.Close(); err != nil {
			t.Errorf("round %d close: %v", round, err)
		}
	}

	s := server.Stats()
	if s.Sweeps != 0 || s.Pending != 0 || s.Leased != 0 || s.Expired != 0 {
		t.Errorf("server holds state after closed sweeps: %+v", s)
	}
	if want := uint64(3 * len(jobs)); s.Completed != want {
		t.Errorf("completed %d jobs, want %d", s.Completed, want)
	}
	if s.SweepsSubmitted != 3 {
		t.Errorf("sweeps submitted %d, want 3", s.SweepsSubmitted)
	}
}

// TestServerAuth locks every /v1/* endpoint behind the bearer token: a
// missing or wrong token gets 401 on lease, result, submit, poll, close and
// stats alike, and the right token gets through.
func TestServerAuth(t *testing.T) {
	const token = "sekrit"
	server := NewServer(ServerOptions{Token: token})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	endpoints := []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/v1/lease", LeaseRequest{Worker: "w"}},
		{http.MethodPost, "/v1/result", ResultRequest{LeaseID: "x", Result: sweep.Result{Err: errors.New("e")}}},
		{http.MethodGet, "/v1/stats", nil},
		{http.MethodPost, "/v1/sweeps", SubmitRequest{}},
		{http.MethodPost, "/v1/sweeps/s-1/jobs", JobRequest{}},
		{http.MethodGet, "/v1/sweeps/s-1", nil},
		{http.MethodDelete, "/v1/sweeps/s-1", nil},
	}
	for _, ep := range endpoints {
		for name, tok := range map[string]string{"missing": "", "wrong": "not-" + token} {
			status, err := doJSON(ctx, srv.Client(), ep.method, srv.URL+ep.path, tok, "", ep.body, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", ep.method, ep.path, err)
			}
			if status != http.StatusUnauthorized {
				t.Errorf("%s %s with %s token: got %d, want 401", ep.method, ep.path, name, status)
			}
		}
		status, err := doJSON(ctx, srv.Client(), ep.method, srv.URL+ep.path, token, "", ep.body, nil)
		if err != nil {
			t.Fatalf("%s %s: %v", ep.method, ep.path, err)
		}
		if status == http.StatusUnauthorized {
			t.Errorf("%s %s rejected the correct token", ep.method, ep.path)
		}
	}
}

// TestSweepAbandonedAfterTTL checks the server-side GC: a sweep whose
// client vanished (no polls) is dropped after SweepTTL, its queued jobs are
// withdrawn, and its id stops resolving.
func TestSweepAbandonedAfterTTL(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	server := NewServer(ServerOptions{SweepTTL: time.Minute, now: clock})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	var resp SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: smallJobs(t, "exchange2")[:1]}, &resp); err != nil {
		t.Fatal(err)
	}
	if s := server.Stats(); s.Sweeps != 1 || s.Pending != 1 {
		t.Fatalf("sweep not queued: %+v", s)
	}

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	var snap ServerSnapshot
	if _, err := doJSON(ctx, srv.Client(), http.MethodGet, srv.URL+"/v1/stats", "", "", nil, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Sweeps != 0 || snap.Pending != 0 || snap.SweepsAbandoned != 1 {
		t.Errorf("orphan sweep not collected: %+v", snap)
	}
	status, err := doJSON(ctx, srv.Client(), http.MethodGet, srv.URL+"/v1/sweeps/"+resp.SweepID+"/results", "", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusNotFound {
		t.Errorf("abandoned sweep still resolves: status %d", status)
	}
}

// blockUntilCancel is a worker-side executor that parks every job until the
// worker's own context dies, then fails with the context error — the shape
// of a worker being shut down mid-job.
type blockUntilCancel struct {
	started chan struct{}
	once    sync.Once
}

func (b *blockUntilCancel) Execute(ctx context.Context, _ int, _ sweep.Job) (*core.Results, error) {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCancelledWorkerJobRequeued is the regression for the cancellation
// bug: a worker killed mid-job must NOT report ctx.Err() as the job's final
// result. The lease expires instead and a surviving worker completes the
// job, so the sweep sees zero error rows.
func TestCancelledWorkerJobRequeued(t *testing.T) {
	jobs := smallJobs(t, "exchange2")[:1]
	server, url := startServer(t, ServerOptions{LeaseTTL: 100 * time.Millisecond})
	done := runAsync(t, server, url, jobs)

	// The doomed worker takes the job and is cancelled mid-execution.
	blocker := &blockUntilCancel{started: make(chan struct{})}
	doomedCtx, killDoomed := context.WithCancel(context.Background())
	doomedDone := make(chan error, 1)
	doomed := &Worker{Coordinator: url, ID: "doomed", Parallel: 1,
		Poll: 5 * time.Millisecond, Exec: blocker}
	go func() { doomedDone <- doomed.Run(doomedCtx) }()
	select {
	case <-blocker.started:
	case <-time.After(10 * time.Second):
		t.Fatal("doomed worker never leased the job")
	}
	killDoomed()
	if err := <-doomedDone; err != nil {
		t.Fatalf("cancelled worker must exit clean, got %v", err)
	}

	// A healthy worker joins; it must receive the job after the lease TTL
	// and complete it successfully.
	stop := startWorkers(t, url, 1)
	defer stop()
	select {
	case results := <-done:
		if results[0].Err != nil {
			t.Fatalf("cancelled worker poisoned the sweep with an error row: %v", results[0].Err)
		}
		if results[0].Res == nil || results[0].Res.Committed == 0 {
			t.Fatal("no simulation result after requeue")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("requeued job never completed")
	}
	if s := server.Stats(); s.Requeued == 0 {
		t.Errorf("lease loss not accounted: %+v", s)
	}
}

// fakeClock drives the server's lease and sweep clock by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time { f.mu.Lock(); defer f.mu.Unlock(); return f.now }
func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// queueOne opens a sweep on s holding one queued job, as a submission
// would, and returns it so a test can read its completion log.
func queueOne(s *Server) *sweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := newSweep("s-test", "", nil, s.opts.now())
	s.sweeps[st.id] = st
	s.enqueueLocked(st, 0, sweep.Job{Bench: "exchange2", Mode: "baseline"})
	return st
}

// TestExpiredLeasesPurgedOnCompletion: the expired-lease index must shrink
// back to zero when a job with timed-out leases finally completes.
func TestExpiredLeasesPurgedOnCompletion(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000, 0)}
	s := NewServer(ServerOptions{LeaseTTL: time.Minute, now: clk.Now})
	st := queueOne(s)

	crash, ok := s.lease("crasher", "crasher")
	if !ok {
		t.Fatal("no lease granted")
	}
	clk.Advance(2 * time.Minute)
	release, ok := s.lease("healthy", "healthy") // triggers expiry + immediate re-grant
	if !ok {
		t.Fatal("expired job not re-leased")
	}
	if snap := s.Stats(); snap.Expired != 1 || snap.Requeued != 1 {
		t.Fatalf("expiry not indexed: %+v", snap)
	}
	if !s.report(release.LeaseID, sweep.Result{Res: &core.Results{Stats: &pipeline.Stats{Committed: 1}}}, "") {
		t.Fatal("healthy completion rejected")
	}
	if snap := s.Stats(); snap.Expired != 0 {
		t.Errorf("expired entries leaked past completion: %+v", snap)
	}
	if out := decodeLog(t, st.log); len(out) != 1 || out[0].Err != nil || out[0].Res == nil {
		t.Errorf("want one logged result, got %+v", out)
	}
	// The crasher's stale lease is gone from the index too: its late report
	// is rejected rather than double-completing the job.
	if s.report(crash.LeaseID, sweep.Result{Res: &core.Results{Stats: &pipeline.Stats{Committed: 1}}}, "") {
		t.Error("purged expired lease still accepted a result")
	}
}

// TestExpiredLeasesPurgedOnFailure: lease exhaustion must clear the failed
// job's expired entries along with logging the error.
func TestExpiredLeasesPurgedOnFailure(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000, 0)}
	s := NewServer(ServerOptions{LeaseTTL: time.Minute, MaxAttempts: 2, now: clk.Now})
	st := queueOne(s)

	if _, ok := s.lease("c1", "c1"); !ok {
		t.Fatal("no first lease")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := s.lease("c2", "c2"); !ok { // requeue + second (final) attempt
		t.Fatal("no second lease")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := s.lease("c3", "c3"); ok { // expiry exhausts the job; queue is empty
		t.Fatal("exhausted job leased again")
	}
	out := decodeLog(t, st.log)
	if len(out) != 1 {
		t.Fatalf("want the exhaustion error logged once, got %d results", len(out))
	}
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "lease lost") {
		t.Errorf("want lease-exhaustion error, got %v", out[0].Err)
	}
	if snap := s.Stats(); snap.Expired != 0 || snap.Failed != 1 {
		t.Errorf("expired entries leaked past failure: %+v", snap)
	}
}

// TestExpiredLeasesPurgedOnAbandon: closing a sweep whose job has a
// timed-out lease must clear that lease from the expired index.
func TestExpiredLeasesPurgedOnAbandon(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000, 0)}
	server := NewServer(ServerOptions{LeaseTTL: time.Minute, now: clk.Now})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()
	var resp SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: smallJobs(t, "exchange2")[:1]}, &resp); err != nil {
		t.Fatal(err)
	}
	if _, ok := server.lease("crasher", "crasher"); !ok {
		t.Fatal("no lease granted")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := server.lease("w2", "w2"); !ok { // expiry + re-grant
		t.Fatal("expired job not re-leased")
	}
	if s := server.Stats(); s.Expired != 1 {
		t.Fatalf("expiry not indexed: %+v", s)
	}
	if status, err := doJSON(ctx, srv.Client(), http.MethodDelete, srv.URL+"/v1/sweeps/"+resp.SweepID, "", "", nil, nil); err != nil || status != http.StatusOK {
		t.Fatalf("close sweep: status %d err %v", status, err)
	}
	if s := server.Stats(); s.Expired != 0 || s.Leased != 0 || s.Pending != 0 {
		t.Errorf("abandoned job left lease state behind: %+v", s)
	}
}

// cannedExec answers every job at once with the same small result.
type cannedExec struct{}

func (cannedExec) Execute(context.Context, int, sweep.Job) (*core.Results, error) {
	return &core.Results{Stats: &pipeline.Stats{Committed: 1}}, nil
}

// statusRecorder remembers the status a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// TestCloseWhileReporting: a client closing its sweep while a worker is
// reporting into it must leave nothing behind. Every report is answered
// 200 (its lease resolved before the close) or 409 (the close withdrew the
// lease), no index is logged twice, and the lease tables end empty.
func TestCloseWhileReporting(t *testing.T) {
	server := NewServer(ServerOptions{})
	inner := server.Handler()
	var mu sync.Mutex
	statuses := make(map[int]int) // /v1/result status -> count
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		inner.ServeHTTP(rec, req)
		if req.URL.Path == "/v1/result" {
			mu.Lock()
			statuses[rec.status]++
			mu.Unlock()
		}
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker := &Worker{Coordinator: srv.URL, ID: "w", Parallel: 2, Poll: time.Millisecond, Exec: cannedExec{}}
	ran := make(chan error, 1)
	go func() { ran <- worker.Run(ctx) }()

	jobs := make([]sweep.Job, 16)
	for i := range jobs {
		jobs[i] = sweep.Job{Bench: "exchange2", Mode: "baseline", Seed: int64(i + 1)}
	}
	var sweeps []*sweepState
	for round := 0; round < 24; round++ {
		var resp SubmitResponse
		if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "",
			SubmitRequest{Jobs: jobs}, &resp); err != nil {
			t.Fatal(err)
		}
		server.mu.Lock()
		st := server.sweeps[resp.SweepID]
		server.mu.Unlock()
		sweeps = append(sweeps, st)
		// Close at a different point of the stream each round.
		want := round % len(jobs)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			server.mu.Lock()
			n := len(st.log)
			server.mu.Unlock()
			if n >= want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d results logged", round, n, want)
			}
		}
		if status, err := doJSON(ctx, srv.Client(), http.MethodDelete, srv.URL+"/v1/sweeps/"+resp.SweepID,
			"", "", nil, nil); err != nil || status != http.StatusOK {
			t.Fatalf("round %d: close: status %d err %v", round, status, err)
		}
	}
	cancel()
	if err := <-ran; err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	t.Logf("report statuses: %v", statuses)
	for status, n := range statuses {
		if status != http.StatusOK && status != http.StatusConflict {
			t.Errorf("%d reports answered %d", n, status)
		}
	}
	if statuses[http.StatusOK] == 0 {
		t.Error("no report was accepted")
	}
	mu.Unlock()
	server.mu.Lock()
	for _, st := range sweeps {
		seen := make(map[int]bool)
		for _, res := range decodeLog(t, st.log) {
			if seen[res.Index] {
				t.Errorf("sweep %s logged index %d twice", st.id, res.Index)
			}
			seen[res.Index] = true
		}
	}
	server.mu.Unlock()
	if s := server.Stats(); s.Pending != 0 || s.Leased != 0 || s.Expired != 0 || s.Sweeps != 0 {
		t.Errorf("closed sweeps left lease state behind: %+v", s)
	}
}

// TestReportTerminal4xx is the regression for the retry bug: a payload the
// coordinator permanently rejects (400) must not be retried like a
// transport fault, while 5xx keeps its transient retries.
func TestReportTerminal4xx(t *testing.T) {
	for _, tc := range []struct {
		status    int
		wantCalls int32
		wantErr   string
	}{
		{http.StatusBadRequest, 1, "permanently rejected"},
		{http.StatusConflict, 1, "no longer valid"},
		{http.StatusInternalServerError, 8, "unexpected status 500"},
	} {
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			calls.Add(1)
			http.Error(w, "nope", tc.status)
		}))
		w := &Worker{Coordinator: srv.URL,
			sleepFn: func(ctx context.Context, d time.Duration) bool { return true }}
		err := w.report(context.Background(), srv.Client(), "lease-1",
			sweep.Result{Err: errors.New("job error")})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("status %d: got error %v, want %q", tc.status, err, tc.wantErr)
		}
		if got := calls.Load(); got != tc.wantCalls {
			t.Errorf("status %d: %d report attempts, want %d", tc.status, got, tc.wantCalls)
		}
		srv.Close()
	}
}

// TestSubmitRetriesServerErrors: a coordinator answering 5xx (mid-restart,
// fronting proxy) is retried, and a non-200 that persists is surfaced as an
// error instead of silently yielding an empty sweep id.
func TestSubmitRetriesServerErrors(t *testing.T) {
	var calls atomic.Int32
	real := NewServer(ServerOptions{})
	inner := real.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, req)
	}))
	defer srv.Close()

	re := &RemoteExecutor{URL: srv.URL}
	if err := re.Submit(context.Background(), smallJobs(t, "exchange2")[:1]); err != nil {
		t.Fatalf("submit did not ride out 503s: %v", err)
	}
	re.mu.Lock()
	id := re.sweepID
	re.mu.Unlock()
	if id == "" {
		t.Fatal("submit succeeded without a sweep id")
	}

	// A terminal non-200 (here 404 from a bogus base path) must error.
	re2 := &RemoteExecutor{URL: srv.URL + "/nope"}
	if err := re2.Submit(context.Background(), smallJobs(t, "exchange2")[:1]); err == nil {
		t.Fatal("submit to a bogus path reported success")
	}
}

// TestAddJobClosedSweep: a job racing a sweep's abandonment must be
// refused, not silently dropped while the handler reports acceptance.
func TestAddJobClosedSweep(t *testing.T) {
	s := NewServer(ServerOptions{})
	st := newSweep("s-x", "", nil, time.Now())
	st.closed = true
	s.mu.Lock()
	added := s.addJobLocked(st, 0, sweep.Job{Bench: "exchange2", Mode: "baseline"})
	s.mu.Unlock()
	if added {
		t.Fatal("closed sweep accepted a job")
	}
	if n := s.Stats().Pending; n != 0 {
		t.Fatalf("dropped job still queued: %d pending", n)
	}
}

// TestSubmitNonceIdempotent: re-posting a submission whose response was
// lost must return the existing sweep instead of double-running the matrix.
func TestSubmitNonceIdempotent(t *testing.T) {
	server := NewServer(ServerOptions{})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	req := SubmitRequest{Jobs: smallJobs(t, "exchange2")[:1], Nonce: "retry-nonce-1"}
	var first, second SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "", req, &first); err != nil {
		t.Fatal(err)
	}
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "", req, &second); err != nil {
		t.Fatal(err)
	}
	if first.SweepID != second.SweepID {
		t.Errorf("retried submission opened a second sweep: %s vs %s", first.SweepID, second.SweepID)
	}
	if s := server.Stats(); s.SweepsSubmitted != 1 || s.Pending != 1 {
		t.Errorf("duplicate sweep state: %+v", s)
	}
	// Closing the sweep releases the nonce; the same nonce then opens a
	// fresh sweep rather than resolving to a dead id.
	if _, err := doJSON(ctx, srv.Client(), http.MethodDelete, srv.URL+"/v1/sweeps/"+first.SweepID, "", "", nil, nil); err != nil {
		t.Fatal(err)
	}
	var third SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "", req, &third); err != nil {
		t.Fatal(err)
	}
	if third.SweepID == first.SweepID {
		t.Error("nonce resolved to a closed sweep")
	}
}
