package grid

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"safespec/internal/chaos"
	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

// poisonSeed searches for an injector seed that assigns the panic fault to
// exactly one job in the matrix, and returns that seed and the poisoned
// job's index. The search is deterministic: the same matrix always picks
// the same seed.
func poisonSeed(t *testing.T, jobs []sweep.Job, cfg chaos.JobFaults) (int64, int) {
	t.Helper()
	for seed := int64(1); seed < 10_000; seed++ {
		cfg.Seed = seed
		ji := chaos.NewJobInjector(cfg)
		hit, count := -1, 0
		for i, j := range jobs {
			if ji.Classify(j) != chaos.JobFaultNone {
				hit = i
				count++
			}
		}
		if count == 1 {
			return seed, hit
		}
	}
	t.Fatal("no seed poisons exactly one job")
	return 0, 0
}

// localJSONL runs the jobs in-process and returns the JSONL lines — the
// byte-identity reference for the fleet runs below.
func localJSONL(t *testing.T, jobs []sweep.Job) []string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs, sweep.Options{
		Sinks: []sweep.Sink{sweep.NewJSONL(&buf)},
	}); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
}

// runFleetSweep drives a sweep through a Server with the given workers and
// returns the results plus the remote JSONL lines.
func runFleetSweep(t *testing.T, srvURL string, jobs []sweep.Job) ([]sweep.Result, []string) {
	t.Helper()
	re := &RemoteExecutor{URL: srvURL, PollWait: 100 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var buf bytes.Buffer
	results, err := sweep.Run(ctx, jobs, sweep.Options{
		Workers:  len(jobs),
		Executor: re,
		Sinks:    []sweep.Sink{sweep.NewJSONL(&buf)},
	})
	if err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	_ = re.Close()
	return results, strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
}

// faultyWorker starts one worker whose executor is wrapped by the given
// job-fault injector; stop cancels it and reports whether Run exited clean.
func faultyWorker(t *testing.T, url, id string, parallel int, exec sweep.Executor, tune func(*Worker)) (stop func()) {
	t.Helper()
	w := &Worker{
		Coordinator: url,
		ID:          id,
		Parallel:    parallel,
		Poll:        5 * time.Millisecond,
		Exec:        exec,
	}
	if tune != nil {
		tune(w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker %s exited with error: %v", id, err)
		}
	}
}

// TestPoisonJobQuarantine is the self-healing acceptance property: a job
// that deterministically panics on every worker that leases it must not
// kill either worker in a two-worker fleet. The sweep completes, the
// poison job becomes exactly one quarantined error row, and every other
// row is byte-identical to a local run.
func TestPoisonJobQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("poison e2e runs a full fleet sweep")
	}
	jobs := smallJobs(t)
	local := localJSONL(t, jobs)
	seed, poisonIdx := poisonSeed(t, jobs, chaos.JobFaults{Panic: 0.1})

	server := NewServer(ServerOptions{
		LeaseTTL: 5 * time.Second, MaxAttempts: 10, QuarantineAfter: 2,
	})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	// Both workers share the fault assignment (same seed): the poison job
	// panics wherever it lands — the shape of a real poison job.
	var stops []func()
	for _, id := range []string{"pa", "pb"} {
		ji := chaos.NewJobInjector(chaos.JobFaults{Seed: seed, Panic: 0.1})
		stops = append(stops, faultyWorker(t, srv.URL, id, 2, ji.WrapExecutor(sweep.LocalExecutor{}), nil))
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	results, remote := runFleetSweep(t, srv.URL, jobs)
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	seen := make(map[int]bool)
	for _, res := range results {
		if seen[res.Index] {
			t.Errorf("cell %d delivered twice", res.Index)
		}
		seen[res.Index] = true
		switch {
		case res.Index == poisonIdx:
			if res.Err == nil {
				t.Errorf("poison job %d completed without error", res.Index)
			} else if !strings.Contains(res.Err.Error(), "quarantined as poison") {
				t.Errorf("poison job error %q lacks quarantine marker", res.Err)
			}
		case res.Err != nil:
			t.Errorf("healthy cell %d errored: %v", res.Index, res.Err)
		}
	}

	if len(remote) != len(local) {
		t.Fatalf("%d remote lines vs %d local", len(remote), len(local))
	}
	for i := range local {
		if i == poisonIdx {
			if !strings.Contains(remote[i], "quarantined as poison") {
				t.Errorf("poison row %d = %q, want a quarantine error row", i, remote[i])
			}
			continue
		}
		if remote[i] != local[i] {
			t.Errorf("row %d diverged from local:\n%s\nvs\n%s", i, remote[i], local[i])
		}
	}

	snap := server.Stats()
	if snap.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", snap.Quarantined)
	}
	if snap.Incidents < 2 {
		t.Errorf("incidents = %d, want >= 2 (distinct workers)", snap.Incidents)
	}
}

// TestWorkerSlotContainment is the -parallel N survival bugfix: when one
// slot's job panics, the sibling slots (and the worker process) keep
// working. A single two-slot worker drains the whole matrix around the
// poison job, which quarantines on the first incident (QuarantineAfter 1
// — there is no second worker to corroborate).
func TestWorkerSlotContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("containment e2e runs a full sweep")
	}
	jobs := smallJobs(t, "exchange2")
	local := localJSONL(t, jobs)
	seed, poisonIdx := poisonSeed(t, jobs, chaos.JobFaults{Panic: 0.2})

	server := NewServer(ServerOptions{
		LeaseTTL: 5 * time.Second, MaxAttempts: 10, QuarantineAfter: 1,
	})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	ji := chaos.NewJobInjector(chaos.JobFaults{Seed: seed, Panic: 0.2})
	stop := faultyWorker(t, srv.URL, "solo", 2, ji.WrapExecutor(sweep.LocalExecutor{}), nil)
	defer stop()

	results, remote := runFleetSweep(t, srv.URL, jobs)
	for _, res := range results {
		if res.Index != poisonIdx && res.Err != nil {
			t.Errorf("surviving cell %d errored: %v", res.Index, res.Err)
		}
	}
	for i := range local {
		if i != poisonIdx && remote[i] != local[i] {
			t.Errorf("row %d diverged from local", i)
		}
	}
	if st := ji.JobStats(); st.Panics == 0 {
		t.Error("injector never panicked — containment untested")
	}
	snap := server.Stats()
	if snap.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", snap.Quarantined)
	}
	if snap.Incidents == 0 {
		t.Errorf("incidents = 0, want the contained panic counted: %+v", snap)
	}
}

// TestHedgedTailLease: a worker that stalls on every job it leases holds
// the sweep's tail hostage until the coordinator hedges its lease to the
// healthy worker. The output must stay byte-identical to a local run —
// the loser's late report is suppressed by the stale-lease 409 path.
func TestHedgedTailLease(t *testing.T) {
	if testing.Short() {
		t.Skip("hedge e2e waits out injected stalls")
	}
	jobs := smallJobs(t, "exchange2")
	local := localJSONL(t, jobs)

	server := NewServer(ServerOptions{
		LeaseTTL: 30 * time.Second, MaxAttempts: 10,
		HedgeAfter: 150 * time.Millisecond,
	})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	// Worker "slow" stalls 5s before every job; worker "fast" is clean
	// and drains the queue, then hedges slow's stuck lease. The submission
	// and the slow worker start first, and fast joins only once slow holds
	// a lease — otherwise fast can drain the whole matrix before slow ever
	// polls and there is no tail to hedge.
	slowJI := chaos.NewJobInjector(chaos.JobFaults{Seed: 1, Stall: 1, StallFor: 5 * time.Second})
	stopSlow := faultyWorker(t, srv.URL, "slow", 1, slowJI.WrapExecutor(sweep.LocalExecutor{}), nil)
	defer stopSlow()

	type fleetOut struct {
		results []sweep.Result
		remote  []string
	}
	ch := make(chan fleetOut, 1)
	go func() {
		results, remote := runFleetSweep(t, srv.URL, jobs)
		ch <- fleetOut{results, remote}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for server.Stats().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow worker never leased a job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopFast := faultyWorker(t, srv.URL, "fast", 2, sweep.LocalExecutor{}, nil)
	defer stopFast()

	out := <-ch
	results, remote := out.results, out.remote
	seen := make(map[int]bool)
	for _, res := range results {
		if res.Err != nil {
			t.Errorf("cell %d errored under hedging: %v", res.Index, res.Err)
		}
		if seen[res.Index] {
			t.Errorf("cell %d delivered twice", res.Index)
		}
		seen[res.Index] = true
	}
	if strings.Join(remote, "\n") != strings.Join(local, "\n") {
		t.Errorf("hedged run diverged from local:\n%s\nvs\n%s",
			strings.Join(remote, "\n"), strings.Join(local, "\n"))
	}
	snap := server.Stats()
	if snap.Hedged == 0 {
		t.Error("no lease was hedged — the tail drained through the stalled worker")
	}
	if st := slowJI.JobStats(); st.Stalls == 0 {
		t.Error("slow worker never stalled — hedge untested")
	}
}

// TestIncidentTimeoutWatchdog: a job stalling past the slot watchdog (90%
// of the lease TTL) is contained as a timeout incident and, with
// QuarantineAfter 1, quarantined into a deterministic error row naming
// the watchdog.
func TestIncidentTimeoutWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog e2e waits out a stall")
	}
	jobs := smallJobs(t, "exchange2")[:1]
	server := NewServer(ServerOptions{
		LeaseTTL: 500 * time.Millisecond, MaxAttempts: 5,
		QuarantineAfter: 1, HedgeAfter: -1,
	})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	ji := chaos.NewJobInjector(chaos.JobFaults{Seed: 1, Stall: 1, StallFor: 2 * time.Second})
	stop := faultyWorker(t, srv.URL, "stuck", 1, ji.WrapExecutor(sweep.LocalExecutor{}), nil)
	defer stop()

	results, _ := runFleetSweep(t, srv.URL, jobs)
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("want one error row, got %+v", results)
	}
	msg := results[0].Err.Error()
	if !strings.Contains(msg, "quarantined as poison after timeout") || !strings.Contains(msg, "slot watchdog") {
		t.Errorf("error %q does not describe the watchdog timeout", msg)
	}
}

// TestIncidentMemoryGuard: a job ballooning the heap past the worker's
// soft memory limit is contained as a memory incident; the quarantined
// row's message names the configured limit (never the observed heap, so
// the row is byte-stable).
func TestIncidentMemoryGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-guard e2e allocates a large buffer")
	}
	jobs := smallJobs(t, "exchange2")[:1]
	server := NewServer(ServerOptions{
		LeaseTTL: 10 * time.Second, MaxAttempts: 5,
		QuarantineAfter: 1, HedgeAfter: -1,
	})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	const limit = 64 << 20
	ji := chaos.NewJobInjector(chaos.JobFaults{
		Seed: 1, Alloc: 1, AllocBytes: 192 << 20, AllocHold: 2 * time.Second,
	})
	stop := faultyWorker(t, srv.URL, "balloon", 1, ji.WrapExecutor(sweep.LocalExecutor{}),
		func(w *Worker) { w.MemLimit = limit })
	defer stop()

	results, _ := runFleetSweep(t, srv.URL, jobs)
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("want one error row, got %+v", results)
	}
	msg := results[0].Err.Error()
	if !strings.Contains(msg, "quarantined as poison after memory") ||
		!strings.Contains(msg, fmt.Sprintf("soft memory limit (%d bytes)", limit)) {
		t.Errorf("error %q does not describe the memory guard", msg)
	}
}

// TestHedgeSkipsHolder pins the holder rule with a fake clock, for a
// hedged job and for one an incident requeued: the job is not granted back
// to the worker that held it while another worker is live, and is granted
// to it once every other worker has been silent past the live window, so a
// one-worker fleet never stalls on a retry.
func TestHedgeSkipsHolder(t *testing.T) {
	for _, tc := range []struct {
		name       string
		incident   bool          // release the lease by incident, not by hedge
		wait       time.Duration // from the holder's grant to its next poll
		wantHolder bool
	}{
		{"hedge, other worker live", false, 2 * time.Second, false},
		{"hedge, other worker silent", false, 2 * workerLiveWindow, true},
		{"incident, other worker live", true, 2 * time.Second, false},
		{"incident, other worker silent", true, 2 * workerLiveWindow, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{now: time.Unix(1_000, 0)}
			c := NewServer(ServerOptions{LeaseTTL: time.Hour, HedgeAfter: time.Second, now: clk.Now})
			if _, ok := c.lease("other/0", "other"); ok { // registers "other" as live
				t.Fatal("empty queue granted a lease")
			}
			queueOne(c)
			held, ok := c.lease("holder/0", "holder")
			if !ok {
				t.Fatal("holder not granted the job")
			}
			clk.Advance(tc.wait)
			if tc.incident && !c.incident(held.LeaseID, taskIncident{Worker: "holder", Kind: IncidentPanic, Message: "boom"}) {
				t.Fatal("incident rejected")
			}
			_, got := c.lease("holder/1", "holder") // hedges the stalled lease when no incident released it
			if s := c.Stats(); s.Hedged+s.Incidents != 1 {
				t.Fatalf("hedged = %d, incidents = %d, want one release", s.Hedged, s.Incidents)
			}
			if got != tc.wantHolder {
				t.Fatalf("holder's second loop granted the retry = %v, want %v", got, tc.wantHolder)
			}
			if !tc.wantHolder {
				if _, ok := c.lease("other/0", "other"); !ok {
					t.Fatal("live other worker not granted the retry")
				}
			}
		})
	}
}

// TestIncidentEndpoint covers the incident wire surface directly: malformed
// reports are rejected, and an incident for an unknown lease answers 409
// without being counted.
func TestIncidentEndpoint(t *testing.T) {
	server := NewServer(ServerOptions{})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	post := func(path string, in any) int {
		status, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+path, "", "", in, nil)
		if err != nil && status == 0 {
			t.Fatalf("POST %s: %v", path, err)
		}
		return status
	}

	if got := post("/v1/incident", IncidentRequest{LeaseID: "nope", Worker: "w1", Kind: "weird", Message: "m"}); got != http.StatusBadRequest {
		t.Fatalf("bad incident kind status %d, want 400", got)
	}
	if got := post("/v1/incident", IncidentRequest{LeaseID: "nope", Kind: IncidentPanic, Message: "m"}); got != http.StatusBadRequest {
		t.Fatalf("anonymous incident status %d, want 400", got)
	}
	if got := post("/v1/incident", IncidentRequest{LeaseID: "nope", Worker: "w1", Kind: IncidentPanic, Message: "m"}); got != http.StatusConflict {
		t.Fatalf("unknown lease incident status %d, want 409", got)
	}
	if n := server.Stats().Incidents; n != 0 {
		t.Errorf("rejected incident counted: incidents = %d, want 0", n)
	}
	// Liveness rides on lease polls and reports; there is no beacon.
	if got := post("/v1/heartbeat", map[string]string{"worker": "w1"}); got != http.StatusNotFound {
		t.Errorf("heartbeat status %d, want 404", got)
	}
}

// TestReadyzProbes: the coordinator ops surface answers its liveness and
// readiness probes, and readiness flips to 503 once draining.
func TestReadyzProbes(t *testing.T) {
	server := NewServer(ServerOptions{})
	ops := httptest.NewServer(server.OpsHandler())
	defer ops.Close()

	get := func(path string) int {
		resp, err := http.Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz %d", got)
	}
	server.Drain()
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining %d, want 503", got)
	}
}

// TestQuarantineHistorySurvivesRestart: an incident recorded against a job
// before a graceful restart still counts toward quarantine after it — the
// history rides the journal and the shutdown snapshot, so a poison job
// cannot reset its record by outliving a coordinator.
func TestQuarantineHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	jobs := smallJobs(t, "exchange2")
	opts := ServerOptions{
		LeaseTTL: time.Minute, MaxAttempts: 10, QuarantineAfter: 2, HedgeAfter: -1,
	}

	first := NewServer(opts)
	if err := first.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(first.Handler())
	var resp SubmitResponse
	if _, err := doJSON(ctx, srv1.Client(), http.MethodPost, srv1.URL+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: jobs, Nonce: "n-poison"}, &resp); err != nil {
		t.Fatal(err)
	}
	lease := leaseOne(t, srv1.URL)
	if _, err := doJSON(ctx, srv1.Client(), http.MethodPost, srv1.URL+"/v1/incident", "", "",
		IncidentRequest{LeaseID: lease.LeaseID, Worker: "a", Kind: IncidentPanic, Message: "boom"}, nil); err != nil {
		t.Fatal(err)
	}
	poisonIdx := lease.Index
	srv1.Close()
	if err := first.CloseState(); err != nil {
		t.Fatal(err)
	}

	second := NewServer(opts)
	if err := second.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer second.CloseState()
	srv2 := httptest.NewServer(second.Handler())
	defer srv2.Close()

	// Drain leases until the poisoned job comes around, then report a
	// second incident from a different worker: with the recovered history
	// it must cross QuarantineAfter=2 immediately.
	found := false
	for i := 0; i < len(jobs)+2 && !found; i++ {
		lr := leaseOne(t, srv2.URL)
		if lr.Index == poisonIdx {
			if _, err := doJSON(ctx, srv2.Client(), http.MethodPost, srv2.URL+"/v1/incident", "", "",
				IncidentRequest{LeaseID: lr.LeaseID, Worker: "b", Kind: IncidentPanic, Message: "boom"}, nil); err != nil {
				t.Fatal(err)
			}
			found = true
			continue
		}
		if _, err := doJSON(ctx, srv2.Client(), http.MethodPost, srv2.URL+"/v1/result", "", "",
			ResultRequest{LeaseID: lr.LeaseID, Result: sweep.Result{
				Index: lr.Index, Job: lr.Job,
				Res: &core.Results{Stats: &pipeline.Stats{Committed: uint64(lr.Index + 1)}},
			}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !found {
		t.Fatal("poisoned job never re-leased after restart")
	}
	snap := second.Stats()
	if snap.Quarantined != 1 {
		t.Errorf("quarantined = %d after one post-restart incident, want 1 (history lost?)", snap.Quarantined)
	}
}
