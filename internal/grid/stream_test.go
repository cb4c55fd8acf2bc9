package grid

import (
	"context"
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

// TestResultBatchCursor exercises the batch endpoint's cursor contract over
// the wire: a stale cursor beyond the completion log is 400 (a confused
// client must fail loudly, not hang), the tip cursor long-polls into an
// empty batch with Next == after, and a zero cursor replays the whole log.
func TestResultBatchCursor(t *testing.T) {
	server := NewServer(ServerOptions{})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	jobs := smallJobs(t, "exchange2")[:2]
	var resp SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: jobs}, &resp); err != nil {
		t.Fatal(err)
	}
	results := func(query string, batch *ResultBatch) int {
		t.Helper()
		status, err := doJSON(ctx, srv.Client(), http.MethodGet,
			srv.URL+"/v1/sweeps/"+resp.SweepID+"/results"+query, "", "", nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		return status
	}

	// Nothing completed yet: a cursor past the log is the client's bug.
	if status := results("?after=1", nil); status != http.StatusBadRequest {
		t.Errorf("stale cursor: got %d, want 400", status)
	}
	if status := results("?after=-1", nil); status != http.StatusBadRequest {
		t.Errorf("negative cursor: got %d, want 400", status)
	}
	// The tip cursor long-polls and comes back empty when nothing finishes.
	var empty ResultBatch
	if status := results("?after=0&wait=30ms", &empty); status != http.StatusOK {
		t.Fatalf("tip poll: got %d, want 200", status)
	}
	if len(empty.Results) != 0 || empty.Next != 0 || empty.Done {
		t.Errorf("tip poll on an idle sweep: %+v", empty)
	}

	stop := startWorkers(t, srv.URL, 1)
	defer stop()
	deadline := time.Now().Add(30 * time.Second)
	var all ResultBatch
	after := 0
	for {
		var batch ResultBatch
		if status := results(fmt.Sprintf("?after=%d&wait=1s", after), &batch); status != http.StatusOK {
			t.Fatalf("batch poll: got %d, want 200", status)
		}
		all.Results = append(all.Results, batch.Results...)
		after = batch.Next
		if batch.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never drained; have %d/%d results", len(all.Results), len(jobs))
		}
	}
	if len(all.Results) != len(jobs) {
		t.Fatalf("streamed %d results, want %d", len(all.Results), len(jobs))
	}
	// A zero cursor replays the full log; the tip cursor is now just empty.
	var replay ResultBatch
	if status := results("?after=0", &replay); status != http.StatusOK || len(replay.Results) != len(jobs) {
		t.Errorf("replay: status %d, %d results, want 200 with %d", status, len(replay.Results), len(jobs))
	}
	if status := results(fmt.Sprintf("?after=%d", len(jobs)), &replay); status != http.StatusOK {
		t.Errorf("tip after drain: got %d, want 200", status)
	}
	if status := results(fmt.Sprintf("?after=%d", len(jobs)+1), nil); status != http.StatusBadRequest {
		t.Errorf("cursor past drained log: got %d, want 400", status)
	}
}

// TestStreamCoordinatorRestart: a RemoteExecutor whose coordinator restarts
// mid-stream (losing all state) re-resolves its sweep by submission nonce,
// re-submits the jobs the restarted process never saw, and completes every
// in-flight Execute — and because restarted coordinators assign fresh random
// sweep ids, it never silently adopts a sweep some other client opened after
// the restart.
func TestStreamCoordinatorRestart(t *testing.T) {
	var handler atomic.Value // http.Handler
	before := NewServer(ServerOptions{})
	handler.Store(before.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, req)
	}))
	defer srv.Close()

	jobs := smallJobs(t, "exchange2")[:2]
	re := &RemoteExecutor{URL: srv.URL, PollWait: 50 * time.Millisecond}
	if err := re.Submit(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	re.mu.Lock()
	oldID := re.sweepID
	re.mu.Unlock()

	type outcome struct {
		res *core.Results
		err error
	}
	outc := make(chan outcome, len(jobs))
	for i, j := range jobs {
		go func() {
			res, err := re.Execute(context.Background(), i, j)
			outc <- outcome{res, err}
		}()
	}
	// Wait until the stream is live (a waiter is parked), then "restart" the
	// coordinator: fresh process, empty state, new random ids.
	for {
		re.mu.Lock()
		live := re.streamCtx != nil
		re.mu.Unlock()
		if live {
			break
		}
		time.Sleep(time.Millisecond)
	}
	after := NewServer(ServerOptions{})
	handler.Store(after.Handler())
	// Another client opens a sweep on the restarted coordinator; the old id
	// must not resolve to it, and recovery must not adopt it.
	var foreign SubmitResponse
	if _, err := doJSON(context.Background(), srv.Client(), http.MethodPost,
		srv.URL+"/v1/sweeps", "", "", SubmitRequest{Jobs: jobs}, &foreign); err != nil {
		t.Fatal(err)
	}
	if foreign.SweepID == oldID {
		t.Fatalf("restarted coordinator reissued sweep id %s", oldID)
	}

	stop := startWorkers(t, srv.URL, 1)
	defer stop()
	for range jobs {
		select {
		case out := <-outc:
			if out.err != nil {
				t.Errorf("Execute through restart: %v", out.err)
			} else if out.res == nil || out.res.Committed == 0 {
				t.Errorf("Execute through restart returned empty result %+v", out.res)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Execute hung through the coordinator restart")
		}
	}
	re.mu.Lock()
	newID := re.sweepID
	re.mu.Unlock()
	if newID == oldID {
		t.Errorf("executor kept dead sweep id %s through the restart", oldID)
	}
	if newID == foreign.SweepID {
		t.Errorf("recovery adopted the foreign sweep %s", foreign.SweepID)
	}
	if err := re.Close(); err != nil {
		t.Errorf("close after restart: %v", err)
	}
}

// TestStreamLateLeaseInterleave: when a lease expires mid-stream and the
// job is completed by a second worker, the completion log must carry the
// result exactly once — the crashed worker's late report is rejected and
// never streamed as a duplicate.
func TestStreamLateLeaseInterleave(t *testing.T) {
	clk := &fakeClock{now: time.Unix(50_000, 0)}
	server := NewServer(ServerOptions{
		LeaseTTL: time.Minute,
		now:      clk.Now,
	})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	var resp SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: smallJobs(t, "exchange2")[:1]}, &resp); err != nil {
		t.Fatal(err)
	}
	crash := leaseOne(t, srv.URL)
	clk.Advance(2 * time.Minute) // the crasher's lease times out
	healthy := leaseOne(t, srv.URL)

	report := func(leaseID string) int {
		t.Helper()
		status, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/result", "", "",
			ResultRequest{LeaseID: leaseID, Result: sweep.Result{
				Index: 0, Res: &core.Results{Stats: &pipeline.Stats{Committed: 1}},
			}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return status
	}
	if status := report(healthy.LeaseID); status != http.StatusOK {
		t.Fatalf("healthy report: got %d, want 200", status)
	}
	// The crasher wakes up and reports into the already-completed job.
	if status := report(crash.LeaseID); status != http.StatusConflict {
		t.Fatalf("late report on expired lease: got %d, want 409", status)
	}

	var batch ResultBatch
	if _, err := doJSON(ctx, srv.Client(), http.MethodGet,
		srv.URL+"/v1/sweeps/"+resp.SweepID+"/results?after=0", "", "", nil, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 || batch.Next != 1 || !batch.Done {
		t.Fatalf("completion log must hold the result exactly once: %+v", batch)
	}
	if s := server.Stats(); s.Completed != 1 || s.Requeued != 1 {
		t.Errorf("interleave accounting wrong: %+v", s)
	}
}

// TestStreamBatchRequestCount is the efficiency contract behind the
// streaming redesign: draining an N-cell sweep must cost O(result batches)
// HTTP requests, not O(N). All jobs are completed before the first Execute
// waits, so every result arrives in the very first batch and the request
// count stays flat no matter how wide the matrix is.
func TestStreamBatchRequestCount(t *testing.T) {
	server := NewServer(ServerOptions{})
	inner := server.Handler()
	var resultPolls, total atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		total.Add(1)
		if strings.HasSuffix(req.URL.Path, "/results") {
			resultPolls.Add(1)
		}
		inner.ServeHTTP(w, req)
	}))
	defer srv.Close()

	jobs := smallJobs(t) // two benches x all modes: comfortably > 4 cells
	// A long poll window keeps the stream parked at the log tip until Close,
	// so the request count below is deterministic.
	re := &RemoteExecutor{URL: srv.URL, PollWait: 30 * time.Second}
	if err := re.Submit(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	stop := startWorkers(t, srv.URL, 2)
	deadline := time.Now().Add(60 * time.Second)
	for server.Stats().Completed < uint64(len(jobs)) {
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("fleet never drained the matrix: %+v", server.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()

	before := total.Load()
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := re.Execute(context.Background(), i, j)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
			} else if res == nil || res.Committed == 0 {
				t.Errorf("job %d: empty result", i)
			}
		}()
	}
	wg.Wait()
	if err := re.Close(); err != nil {
		t.Errorf("close: %v", err)
	}

	polls := resultPolls.Load()
	drain := total.Load() - before
	if polls >= int32(len(jobs))/2 {
		t.Errorf("draining %d pre-completed cells took %d result polls; want O(batches), a handful at most", len(jobs), polls)
	}
	// The whole drain — results plus the final DELETE — must stay far below
	// one request per cell (the per-index polling this design replaced).
	if drain >= int32(len(jobs)) {
		t.Errorf("draining %d cells took %d requests; want O(batches) not O(cells)", len(jobs), drain)
	}
	if got := server.Stats().ResultsStreamed; got != uint64(len(jobs)) {
		t.Errorf("results_streamed counter %d, want %d", got, len(jobs))
	}
}
