package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// startServer serves a fresh Server with the given options over loopback
// HTTP, closed when the test ends.
func startServer(t testing.TB, opts ServerOptions) (*Server, string) {
	t.Helper()
	server := NewServer(opts)
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)
	return server, srv.URL
}

// remoteExec is a RemoteExecutor for url whose sweep is released when the
// test ends.
func remoteExec(t testing.TB, url string) *RemoteExecutor {
	t.Helper()
	re := &RemoteExecutor{URL: url, PollWait: 100 * time.Millisecond}
	t.Cleanup(func() { re.Close() })
	return re
}

// runAsync runs jobs through a RemoteExecutor on url in the background and
// returns once the coordinator has queued the matrix, so a test can act
// as a worker straight away.
func runAsync(t *testing.T, server *Server, url string, jobs []sweep.Job) <-chan []sweep.Result {
	t.Helper()
	done := make(chan []sweep.Result, 1)
	re := remoteExec(t, url)
	go func() {
		results, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: len(jobs), Executor: re})
		if err != nil {
			t.Error(err)
		}
		done <- results
	}()
	waitQueued(t, server)
	return done
}

// waitQueued waits until the coordinator has at least one pending job.
func waitQueued(t *testing.T, server *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for server.Stats().Pending == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never queued")
		}
		time.Sleep(time.Millisecond)
	}
}

func smallJobs(t testing.TB, benches ...string) []sweep.Job {
	t.Helper()
	if len(benches) == 0 {
		benches = []string{"exchange2", "mcf"}
	}
	spec := sweep.Quick()
	spec.Benchmarks = benches
	spec.Instructions = 2_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// startWorkers runs n in-process workers against url and returns a stop
// function that cancels and joins them.
func startWorkers(t testing.TB, url string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Coordinator: url,
			ID:          "w" + string(rune('0'+i)),
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

// TestGridEndToEnd is the acceptance property: a sweep executed by two
// worker processes over HTTP produces byte-identical JSONL/CSV output and
// identical aggregate accounting to a local run.
func TestGridEndToEnd(t *testing.T) {
	jobs := smallJobs(t)

	runWith := func(exec sweep.Executor, workers int) (string, sweep.Aggregate) {
		var jsonl, csv bytes.Buffer
		var agg sweep.Aggregate
		_, err := sweep.Run(context.Background(), jobs, sweep.Options{
			Workers:  workers,
			Executor: exec,
			Sinks:    []sweep.Sink{sweep.NewJSONL(&jsonl), sweep.NewCSV(&csv), &agg},
		})
		if err != nil {
			t.Fatal(err)
		}
		return jsonl.String() + "\n---\n" + csv.String(), agg
	}

	local, localAgg := runWith(nil, 0)

	server, url := startServer(t, ServerOptions{})
	stop := startWorkers(t, url, 2)
	defer stop()

	remote, remoteAgg := runWith(remoteExec(t, url), len(jobs))

	if local != remote {
		t.Errorf("distributed sink output differs from local:\n%s\nvs\n%s", local, remote)
	}
	if localAgg.Jobs != remoteAgg.Jobs || localAgg.Errored != remoteAgg.Errored ||
		localAgg.Committed != remoteAgg.Committed || localAgg.Cycles != remoteAgg.Cycles {
		t.Errorf("aggregate accounting differs: local %+v vs remote %+v", localAgg, remoteAgg)
	}
	s := server.Stats()
	if s.Completed != uint64(len(jobs)) || s.Pending != 0 || s.Leased != 0 {
		t.Errorf("coordinator accounting off: %+v", s)
	}
}

// TestGridJobErrorTravels checks that a job failure on a worker comes back
// as that job's error with its cause intact — the same row a local run
// produces — without aborting the sweep.
func TestGridJobErrorTravels(t *testing.T) {
	jobs := smallJobs(t, "exchange2")
	jobs = append(jobs, sweep.Job{Bench: "no-such-bench", Mode: "baseline"})

	_, url := startServer(t, ServerOptions{})
	stop := startWorkers(t, url, 1)
	defer stop()

	var local, remote bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs,
		sweep.Options{Sinks: []sweep.Sink{sweep.NewJSONL(&local)}}); err != nil {
		t.Fatal(err)
	}
	results, err := sweep.Run(context.Background(), jobs, sweep.Options{
		Workers: len(jobs), Executor: remoteExec(t, url),
		Sinks: []sweep.Sink{sweep.NewJSONL(&remote)},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := results[len(results)-1]
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "unknown benchmark") {
		t.Fatalf("error cause lost on the wire: %v", bad.Err)
	}
	if local.String() != remote.String() {
		t.Errorf("error rows differ:\n%s\nvs\n%s", local.String(), remote.String())
	}
}

// leaseOne acts as a crashing worker: it takes one lease over raw HTTP and
// never reports a result.
func leaseOne(t *testing.T, url string) LeaseResponse {
	t.Helper()
	body, _ := json.Marshal(LeaseRequest{Worker: "crasher"})
	resp, err := http.Post(url+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease status %d", resp.StatusCode)
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

// TestLeaseLostRequeues is the worker-crash path: a lease that never
// completes expires and the job is handed to a live worker, invisibly to
// the sweep.
func TestLeaseLostRequeues(t *testing.T) {
	jobs := smallJobs(t, "exchange2")[:1]

	server, url := startServer(t, ServerOptions{LeaseTTL: 50 * time.Millisecond})
	done := runAsync(t, server, url, jobs)

	// The crasher steals the job, then a healthy worker joins: it must get
	// the job after the TTL and finish the sweep.
	lease := leaseOne(t, url)
	if lease.Job.Bench != "exchange2" {
		t.Fatalf("unexpected job %v", lease.Job)
	}
	stop := startWorkers(t, url, 1)
	defer stop()

	select {
	case results := <-done:
		if results[0].Err != nil {
			t.Fatalf("job failed after requeue: %v", results[0].Err)
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
	// The crasher's stale lease must be rejected if it reports now (with a
	// well-formed payload, so the lease check — not validation — rejects it).
	body, _ := json.Marshal(ResultRequest{LeaseID: lease.LeaseID,
		Result: sweep.Result{Index: 0, Job: lease.Job, Err: errors.New("late crasher")}})
	resp, err := http.Post(url+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale lease accepted with status %d", resp.StatusCode)
	}
}

// TestLeaseExhaustionFailsJob bounds the retry loop: a job whose leases
// keep vanishing becomes an error result instead of stalling the sweep
// forever.
func TestLeaseExhaustionFailsJob(t *testing.T) {
	jobs := smallJobs(t, "exchange2")[:1]
	server, url := startServer(t, ServerOptions{LeaseTTL: time.Millisecond, MaxAttempts: 2})
	done := runAsync(t, server, url, jobs)

	// Keep stealing leases without ever reporting until the coordinator
	// gives up on the job.
	deadline := time.After(30 * time.Second)
	for {
		select {
		case results := <-done:
			if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "lease lost") {
				t.Fatalf("want lease-exhaustion error, got %v", results[0].Err)
			}
			if s := server.Stats(); s.Failed != 1 {
				t.Errorf("failure not accounted: %+v", s)
			}
			return
		case <-deadline:
			t.Fatal("exhaustion never reported")
		default:
		}
		body, _ := json.Marshal(LeaseRequest{Worker: "thief"})
		resp, err := http.Post(url+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		time.Sleep(2 * time.Millisecond)
	}
}

// TestExecuteCancellation checks that a cancelled sweep abandons its queued
// jobs: Execute returns the context error, closing the executor withdraws
// the job from the coordinator, and a worker reporting the abandoned lease
// is turned away.
func TestExecuteCancellation(t *testing.T) {
	server, url := startServer(t, ServerOptions{})
	re := remoteExec(t, url)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := re.Execute(ctx, 0, sweep.Job{Bench: "exchange2", Mode: "baseline", Config: core.Baseline()})
		errc <- err
	}()
	waitQueued(t, server)
	lease := leaseOne(t, url)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if s := server.Stats(); s.Pending != 0 || s.Leased != 0 || s.Sweeps != 0 {
		t.Errorf("abandoned job still tracked: %+v", s)
	}
	body, _ := json.Marshal(ResultRequest{LeaseID: lease.LeaseID,
		Result: sweep.Result{Index: 0, Job: lease.Job, Err: errors.New("too late")}})
	resp, err := http.Post(url+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("abandoned lease accepted with status %d", resp.StatusCode)
	}
}

// TestEmptyResultRejected guards the coordinator against a worker that
// reports neither a payload nor an error: accepting it would surface as a
// nil dereference in the sinks.
func TestEmptyResultRejected(t *testing.T) {
	jobs := smallJobs(t, "exchange2")[:1]
	server, url := startServer(t, ServerOptions{})
	done := runAsync(t, server, url, jobs)
	lease := leaseOne(t, url)
	body, _ := json.Marshal(ResultRequest{LeaseID: lease.LeaseID, Result: sweep.Result{Index: lease.Index, Job: lease.Job}})
	resp, err := http.Post(url+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty result accepted with status %d", resp.StatusCode)
	}
	// The lease stays live; a healthy worker completes the job normally.
	stop := startWorkers(t, url, 1)
	defer stop()
	server.mu.Lock()
	if t2, ok := server.leases[lease.LeaseID]; ok {
		t2.deadline = time.Now() // hand it over immediately
	}
	server.mu.Unlock()
	select {
	case results := <-done:
		if results[0].Err != nil || results[0].Res == nil {
			t.Fatalf("job did not recover: %+v", results[0])
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never completed after rejected empty result")
	}
}
