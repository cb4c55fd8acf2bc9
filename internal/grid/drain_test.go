package grid

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

// TestDrain: Drain() must (1) stop granting leases so workers see an idle
// queue, (2) wake parked result long-polls immediately so client requests
// finish inside the drain deadline, and (3) keep accepting results for
// leases already in flight — a granted job is finished work, not collateral.
func TestDrain(t *testing.T) {
	server := NewServer(ServerOptions{})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	var resp SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: smallJobs(t, "exchange2")[:2]}, &resp); err != nil {
		t.Fatal(err)
	}
	inflight := leaseOne(t, srv.URL)

	// Park a long-poll at the log tip, then drain under it.
	type pollOut struct {
		status  int
		batch   ResultBatch
		err     error
		elapsed time.Duration
	}
	done := make(chan pollOut, 1)
	go func() {
		start := time.Now()
		var batch ResultBatch
		status, err := doJSON(ctx, srv.Client(), http.MethodGet,
			srv.URL+"/v1/sweeps/"+resp.SweepID+"/results?after=0&wait=30s", "", "", nil, &batch)
		done <- pollOut{status, batch, err, time.Since(start)}
	}()
	time.Sleep(100 * time.Millisecond) // let the poll park
	server.Drain()

	select {
	case out := <-done:
		if out.err != nil || out.status != http.StatusOK {
			t.Fatalf("drained poll: status %d, %v", out.status, out.err)
		}
		if out.elapsed > 5*time.Second {
			t.Fatalf("poll held %v through drain; want immediate return", out.elapsed)
		}
		if len(out.batch.Results) != 0 || out.batch.Done {
			t.Fatalf("drained poll returned %+v, want the current (empty) batch", out.batch)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked long-poll never woke on drain")
	}

	// No new leases while draining: the queue still has an unleased job, but
	// workers must see 204 (idle), not work that would outlive the process.
	status, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/lease", "", "",
		LeaseRequest{Worker: "late"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusNoContent {
		t.Fatalf("lease while draining: got %d, want 204", status)
	}

	// The in-flight lease still lands its result.
	status, err = doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/result", "", "",
		ResultRequest{LeaseID: inflight.LeaseID, Result: sweep.WireResult{
			Index: inflight.Index,
			Res:   &core.Results{Stats: &pipeline.Stats{Committed: 3}},
		}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("in-flight result during drain: got %d, want 200", status)
	}
}

// flakyDial fails its first n round-trips with a connection-refused-shaped
// error, then delegates — a coordinator a few seconds into a restart.
type flakyDial struct {
	remaining int
	calls     int
	inner     http.RoundTripper
}

func (f *flakyDial) RoundTrip(req *http.Request) (*http.Response, error) {
	f.calls++
	if f.remaining > 0 {
		f.remaining--
		return nil, errors.New("dial tcp 127.0.0.1:0: connect: connection refused")
	}
	return f.inner.RoundTrip(req)
}

// TestReportRetriesConnectionRefused: the detached final report a
// shutting-down worker sends must ride out a coordinator that refuses
// connections for the first attempts — throwing the result away forces
// another worker to wait out the lease TTL and re-simulate the cell.
func TestReportRetriesConnectionRefused(t *testing.T) {
	var accepted int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		accepted++
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	flaky := &flakyDial{remaining: 3, inner: srv.Client().Transport}
	w := &Worker{
		Coordinator: srv.URL,
		sleepFn:     func(ctx context.Context, d time.Duration) bool { return true },
	}
	_, err := w.report(context.Background(), &http.Client{Transport: flaky}, "lease-1", sweep.Result{
		Index: 0, Res: &core.Results{Stats: &pipeline.Stats{Committed: 1}},
	}, "")
	if err != nil {
		t.Fatalf("report through 3 refused connections: %v", err)
	}
	if flaky.calls != 4 || accepted != 1 {
		t.Fatalf("report made %d attempts (%d accepted), want 4 and 1", flaky.calls, accepted)
	}
	// The schedule itself must fit the 10s detached budget even when every
	// attempt fails: 7 pauses of the transport policy.
	var total time.Duration
	for i := 0; i < 7; i++ {
		total += reportRetry.pause(i)
	}
	if total >= 10*time.Second {
		t.Fatalf("worst-case report backoff %v exceeds the 10s detached budget", total)
	}
}

// TestPauseGrowsAndCaps pins the retry schedule every grid retry loop
// shares: the base pause, doubled once per attempt, held at the cap.
func TestPauseGrowsAndCaps(t *testing.T) {
	b := backoff{Base: 200 * time.Millisecond, Cap: 2 * time.Second}
	want := []time.Duration{
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second,
		2 * time.Second,
	}
	for attempt, w := range want {
		if got := b.pause(attempt); got != w {
			t.Errorf("attempt %d: pause %v, want %v", attempt, got, w)
		}
	}
	if got := (backoff{Base: 3 * time.Second, Cap: 5 * time.Second}).pause(1); got != 5*time.Second {
		t.Errorf("cap below the doubled pause: %v, want 5s", got)
	}
}
