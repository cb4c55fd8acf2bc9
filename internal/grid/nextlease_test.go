package grid

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"safespec/internal/obs"
	"safespec/internal/sweep"
)

// tapCall is one worker request as a tapTransport saw it.
type tapCall struct {
	path   string
	status int
	next   bool // a report that asked for the next lease
	grant  int  // index of the job the response leased, -1 for none
}

// tapTransport records every request a worker makes and the lease each
// answer grants. drop, when set, sees each call and may turn it into a
// transport fault after the coordinator has acted on it, so the worker
// never reads the answer.
type tapTransport struct {
	inner http.RoundTripper
	drop  func(c tapCall) bool

	mu    sync.Mutex
	calls []tapCall
}

func (tt *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := tapCall{path: req.URL.Path, grant: -1}
	if c.path == "/v1/result" {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		b, _ := io.ReadAll(body)
		var rr ResultRequest
		if err := rr.UnmarshalJSON(b); err != nil {
			return nil, err
		}
		c.next = rr.Next != ""
	}
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK && resp.Header.Get(sumHeader) != "" { // a lease or a report's answer
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var lr LeaseResponse
		if err := lr.UnmarshalJSON(b); err != nil {
			return nil, err
		}
		c.grant = lr.Index
		resp.Body = io.NopCloser(bytes.NewReader(b))
	}
	tt.mu.Lock()
	tt.calls = append(tt.calls, c)
	tt.mu.Unlock()
	if tt.drop != nil && tt.drop(c) {
		resp.Body.Close()
		return nil, errors.New("read tcp 127.0.0.1:0: connection reset by peer")
	}
	return resp, nil
}

// count returns how many recorded calls match.
func (tt *tapTransport) count(match func(tapCall) bool) int {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	n := 0
	for _, c := range tt.calls {
		if match(c) {
			n++
		}
	}
	return n
}

// reports returns the recorded /v1/result calls in order.
func (tt *tapTransport) reports() []tapCall {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return slices.DeleteFunc(slices.Clone(tt.calls), func(c tapCall) bool { return c.path != "/v1/result" })
}

// waitCompleted waits until the coordinator has completed n jobs.
func waitCompleted(t *testing.T, server *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for server.Stats().Completed < uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never completed %d jobs: %+v", n, server.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func isLeaseGrant(c tapCall) bool { return c.path == "/v1/lease" && c.status == http.StatusOK }
func isReport(c tapCall) bool     { return c.path == "/v1/result" }

// TestReportLeasesNext: one lease loop drains a queued matrix with one
// round trip per job. Its first job comes from /v1/lease and every other
// one with the answer to the previous report; every grant is used and
// observed as a lease latency. A coordinator that predates "next" ignores
// the key and answers each report with a bare 200, and the loop falls back
// to /v1/lease for every job.
func TestReportLeasesNext(t *testing.T) {
	for _, tc := range []struct {
		name  string
		older bool // the coordinator ignores "next"
	}{{"current coordinator", false}, {"older coordinator", true}} {
		older := tc.older
		t.Run(tc.name, func(t *testing.T) {
			jobs := smallJobs(t)
			n := len(jobs)
			server := NewServer(ServerOptions{})
			inner := server.Handler()
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if older && req.URL.Path == "/v1/result" {
					b, _ := io.ReadAll(req.Body)
					var rr ResultRequest
					if err := rr.UnmarshalJSON(b); err != nil {
						t.Error(err)
					}
					rr.Next = ""
					b, _ = rr.MarshalJSON()
					req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(b)), int64(len(b))
					req.Header.Del(sumHeader)
				}
				inner.ServeHTTP(w, req)
			}))
			t.Cleanup(srv.Close)
			if err := remoteExec(t, srv.URL).Submit(context.Background(), jobs); err != nil {
				t.Fatal(err)
			}
			tap := &tapTransport{inner: http.DefaultTransport}
			m := NewWorkerMetrics(obs.NewRegistry())
			stop := faultyWorker(t, srv.URL, "w", 1, nil, func(w *Worker) {
				w.Client, w.Metrics = &http.Client{Transport: tap}, m
			})
			waitCompleted(t, server, n)
			stop()

			wantLeases, wantAnswered := 1, n-1
			if older {
				wantLeases, wantAnswered = n, 0
			}
			if got := tap.count(isLeaseGrant); got != wantLeases {
				t.Errorf("%d leases granted through /v1/lease, want %d", got, wantLeases)
			}
			if got := tap.count(func(c tapCall) bool { return isReport(c) && c.next }); got != n {
				t.Errorf("%d reports asked for the next lease, want %d", got, n)
			}
			if got := tap.count(func(c tapCall) bool { return isReport(c) && c.grant >= 0 }); got != wantAnswered {
				t.Errorf("%d reports answered with a lease, want %d", got, wantAnswered)
			}
			if s := server.Stats(); s.Granted != uint64(n) || s.Completed != uint64(n) || s.Leased != 0 {
				t.Errorf("granted %d, completed %d, leased %d; want %d, %d, 0", s.Granted, s.Completed, s.Leased, n, n)
			}
			if m.Leased.Value() != uint64(n) || m.Completed.Value() != uint64(n) || m.LeaseLatency.Count() < uint64(n) {
				t.Errorf("worker leased %d, completed %d, observed %d lease latencies; want %d, %d, >= %d",
					m.Leased.Value(), m.Completed.Value(), m.LeaseLatency.Count(), n, n, n)
			}
		})
	}
}

// TestReportBare200: a report grants no lease when it asks for none (a
// worker that predates "next") or when the coordinator is draining. Either
// way the answer is a bare 200, with no body and no checksum.
func TestReportBare200(t *testing.T) {
	for _, tc := range []struct {
		name  string
		next  string
		drain bool
	}{
		{"no next", "", false},
		{"draining", "w/0", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, url := startServer(t, ServerOptions{})
			if err := remoteExec(t, url).Submit(context.Background(), smallJobs(t, "exchange2")[:2]); err != nil {
				t.Fatal(err)
			}
			lr := leaseOne(t, url)
			if tc.drain {
				server.Drain()
			}
			body, _ := ResultRequest{LeaseID: lr.LeaseID, Next: tc.next,
				Result: sweep.WireResult{Index: lr.Index, Err: "job error"}}.MarshalJSON()
			resp, err := http.Post(url+"/v1/result", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || len(got) != 0 || resp.Header.Get(sumHeader) != "" {
				t.Errorf("report answered %d %q (sum %q), want a bare 200",
					resp.StatusCode, got, resp.Header.Get(sumHeader))
			}
			if s := server.Stats(); s.Granted != 1 || s.Completed != 1 || s.Pending != 1 {
				t.Errorf("granted %d, completed %d, pending %d; want 1, 1, 1", s.Granted, s.Completed, s.Pending)
			}
		})
	}
}

// TestReportLeaseAnswerLost: the answer to a report that carried the next
// lease is lost in transit after the coordinator granted it. The worker
// falls back to /v1/lease, the orphaned lease requeues at its TTL, the
// holder rule hands it to the other live worker, and the sweep still
// matches a local run byte for byte.
func TestReportLeaseAnswerLost(t *testing.T) {
	jobs := smallJobs(t)
	want := localJSONL(t, jobs)
	server, url := startServer(t, ServerOptions{LeaseTTL: 500 * time.Millisecond})

	// b joins once a's answer is lost, so a alone can have held the
	// orphan, and b is live when it requeues.
	tapB := &tapTransport{inner: http.DefaultTransport}
	orphan := -1
	joined := make(chan func(), 1)
	var once sync.Once
	tapA := &tapTransport{inner: http.DefaultTransport, drop: func(c tapCall) bool {
		dropped := false
		if isReport(c) && c.grant >= 0 {
			once.Do(func() {
				dropped, orphan = true, c.grant
				joined <- faultyWorker(t, url, "b", 1, nil, func(w *Worker) { w.Client = &http.Client{Transport: tapB} })
			})
		}
		return dropped
	}}
	stopA := faultyWorker(t, url, "a", 1, nil, func(w *Worker) { w.Client = &http.Client{Transport: tapA} })
	defer stopA()
	results, lines := runFleetSweep(t, url, jobs)
	select {
	case stopB := <-joined:
		defer stopB()
	default:
		t.Fatal("no report answer carrying a lease was dropped")
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("cell %d: %v", r.Index, r.Err)
		}
	}
	if !slices.Equal(lines, want) {
		t.Errorf("sweep with a lost lease answer diverged from local:\n%q\nvs\n%q", lines, want)
	}
	granted := func(tt *tapTransport) int {
		return tt.count(func(c tapCall) bool { return c.grant == orphan })
	}
	if a, b := granted(tapA), granted(tapB); a != 1 || b != 1 {
		t.Errorf("orphaned job %d granted %d times to a and %d to b; want 1 and 1 (holder rule)", orphan, a, b)
	}
	if s := server.Stats(); s.Requeued < 1 || s.Completed != uint64(len(jobs)) {
		t.Errorf("requeued %d, completed %d; want >= 1 and %d", s.Requeued, s.Completed, len(jobs))
	}
}

// TestCancelledWorkerRunsHeldLease: a worker cancelled right after a report
// handed it the next lease still runs that job and reports it, and that
// last report asks for no further lease.
func TestCancelledWorkerRunsHeldLease(t *testing.T) {
	jobs := smallJobs(t, "exchange2")
	server, url := startServer(t, ServerOptions{})
	if err := remoteExec(t, url).Submit(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tap := &tapTransport{inner: http.DefaultTransport, drop: func(c tapCall) bool {
		if isReport(c) && c.grant >= 0 {
			cancel()
		}
		return false
	}}
	m := NewWorkerMetrics(obs.NewRegistry())
	w := &Worker{Coordinator: url, ID: "w", Parallel: 1, Poll: 5 * time.Millisecond,
		Client: &http.Client{Transport: tap}, Metrics: m}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("cancelled worker must exit clean, got %v", err)
	}
	reports := tap.reports()
	if len(reports) != 2 || !reports[0].next || reports[0].grant < 0 ||
		reports[1].next || reports[1].status != http.StatusOK || reports[1].grant >= 0 {
		t.Fatalf("reports %+v; want one granting the next lease, then one asking for none", reports)
	}
	if s := server.Stats(); s.Granted != 2 || s.Completed != 2 || s.Leased != 0 || s.Pending != len(jobs)-2 {
		t.Errorf("granted %d, completed %d, leased %d, pending %d; want 2, 2, 0, %d",
			s.Granted, s.Completed, s.Leased, s.Pending, len(jobs)-2)
	}
	if m.Completed.Value() != 2 || m.Requeued.Value() != 0 {
		t.Errorf("worker completed %d, requeued %d; want 2 and 0", m.Completed.Value(), m.Requeued.Value())
	}
}
