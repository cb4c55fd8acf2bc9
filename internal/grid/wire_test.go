package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"safespec/internal/obs"
	"safespec/internal/sweep"
)

// TestTimingRoundTripsWire pins the span-timing wire contract: a worker's
// Timing submitted through POST /v1/result must come back through the
// batch stream with the worker-observed spans intact and the two
// coordinator-stamped spans (queue wait, report overhead) filled in from
// the lease clock.
func TestTimingRoundTripsWire(t *testing.T) {
	clk := &fakeClock{now: time.Unix(80_000, 0)}
	server := NewServer(ServerOptions{
		Lease: Options{LeaseTTL: time.Minute, now: clk.Now},
		now:   clk.Now,
	})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	var resp SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "",
		SubmitRequest{Jobs: smallJobs(t, "exchange2")[:1]}, &resp); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second) // queue wait: submit -> lease grant
	lease := leaseOne(t, srv.URL)
	clk.Advance(2 * time.Second) // grant -> report round trip

	res, timing, err := sweep.LocalExecutor{}.ExecuteTimed(ctx, lease.Index, lease.Job)
	if err != nil {
		t.Fatal(err)
	}
	timing.SimulateNS = int64(7 * time.Millisecond) // pin for exact assertions
	timing.CacheNS = int64(3 * time.Millisecond)
	if status, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/result", "",
		ResultRequest{LeaseID: lease.LeaseID, Result: sweep.Result{
			Index: lease.Index, Job: lease.Job, Res: res, Timing: timing,
		}}, nil); err != nil || status != http.StatusOK {
		t.Fatalf("report: status %d, err %v", status, err)
	}

	// Read the batch raw: the field must exist on the wire under its
	// versioned name, not just survive a same-binary marshal/unmarshal.
	raw, err := http.Get(srv.URL + "/v1/sweeps/" + resp.SweepID + "/results?after=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if !strings.Contains(string(body), `"timing"`) {
		t.Fatalf("batch carries no timing field:\n%s", body)
	}
	var batch ResultBatch
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 {
		t.Fatalf("batch holds %d results, want 1", len(batch.Results))
	}
	got := batch.Results[0].Timing
	if got == nil {
		t.Fatal("Timing lost on the wire")
	}
	if got.SimulateNS != int64(7*time.Millisecond) || got.CacheNS != int64(3*time.Millisecond) {
		t.Errorf("worker spans mangled: %+v", got)
	}
	if want := int64(5 * time.Second); got.QueueNS != want {
		t.Errorf("QueueNS = %v, want %v", time.Duration(got.QueueNS), time.Duration(want))
	}
	// Report overhead is the grant->report window net of what the worker
	// accounted for itself: 2s - 7ms - 3ms.
	if want := int64(2*time.Second - 10*time.Millisecond); got.ReportNS != want {
		t.Errorf("ReportNS = %v, want %v", time.Duration(got.ReportNS), time.Duration(want))
	}
}

// TestNoTimingPeerWireCompat is the backward-compatibility half of the
// contract: a worker that predates span timing reports a bare Result, and
// the coordinator must neither reject it, invent a Timing for it, nor leak
// an empty timing object into the batch encoding (the field is omitempty
// for exactly this reason).
func TestNoTimingPeerWireCompat(t *testing.T) {
	server := NewServer(ServerOptions{})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	var resp SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "",
		SubmitRequest{Jobs: smallJobs(t, "exchange2")[:1]}, &resp); err != nil {
		t.Fatal(err)
	}
	lease := leaseOne(t, srv.URL)
	res, err := sweep.LocalExecutor{}.Execute(ctx, lease.Index, lease.Job)
	if err != nil {
		t.Fatal(err)
	}
	if status, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/result", "",
		ResultRequest{LeaseID: lease.LeaseID, Result: sweep.Result{
			Index: lease.Index, Job: lease.Job, Res: res,
		}}, nil); err != nil || status != http.StatusOK {
		t.Fatalf("old-peer report: status %d, err %v", status, err)
	}

	raw, err := http.Get(srv.URL + "/v1/sweeps/" + resp.SweepID + "/results?after=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if strings.Contains(string(body), `"timing"`) {
		t.Errorf("coordinator invented a timing for an untimed peer:\n%s", body)
	}
	var batch ResultBatch
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 || batch.Results[0].Timing != nil {
		t.Errorf("untimed result must stay bare: %+v", batch.Results)
	}
}

// oldPeerWorker drains a coordinator the way a pre-timing worker build did:
// raw lease/report HTTP with no Timing in the payload.
func oldPeerWorker(t *testing.T, ctx context.Context, url string) {
	t.Helper()
	for ctx.Err() == nil {
		body, _ := json.Marshal(LeaseRequest{Worker: "old-peer"})
		resp, err := http.Post(url+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			time.Sleep(5 * time.Millisecond)
			continue
		}
		var lease LeaseResponse
		err = json.NewDecoder(resp.Body).Decode(&lease)
		resp.Body.Close()
		if err != nil {
			t.Errorf("old peer lease decode: %v", err)
			return
		}
		out := sweep.Result{Index: lease.Index, Job: lease.Job}
		out.Res, out.Err = sweep.LocalExecutor{}.Execute(ctx, lease.Index, lease.Job)
		rb, _ := json.Marshal(ResultRequest{LeaseID: lease.LeaseID, Result: out})
		rr, err := http.Post(url+"/v1/result", "application/json", bytes.NewReader(rb))
		if err == nil {
			rr.Body.Close()
		}
	}
}

// TestNoTimingPeerByteIdenticalSweep runs a whole sweep through a fleet of
// pre-timing workers and checks the JSONL/CSV sinks byte-for-byte against a
// local run: span timing is diagnostic, so its absence on the wire must be
// invisible in sweep output.
func TestNoTimingPeerByteIdenticalSweep(t *testing.T) {
	jobs := smallJobs(t, "exchange2")

	runWith := func(exec sweep.Executor) string {
		var jsonl, csv bytes.Buffer
		_, err := sweep.Run(context.Background(), jobs, sweep.Options{
			Workers:  len(jobs),
			Executor: exec,
			Sinks:    []sweep.Sink{sweep.NewJSONL(&jsonl), sweep.NewCSV(&csv)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return jsonl.String() + "\n---\n" + csv.String()
	}

	local := runWith(nil)

	_, url := startServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go oldPeerWorker(t, ctx, url)

	if remote := runWith(remoteExec(t, url)); remote != local {
		t.Errorf("untimed peer changed sweep output:\n%s\nvs\n%s", remote, local)
	}
}

// TestWorkerHonorsRetryAfter pins the 429 pacing contract with a fake
// sleep: a coordinator Retry-After is authoritative for the backoff
// duration on both the lease and the report path, and the fixed backoff
// only covers responses that omit the header.
func TestWorkerHonorsRetryAfter(t *testing.T) {
	t.Run("report", func(t *testing.T) {
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			switch calls.Add(1) {
			case 1: // no header: the worker falls back to its own backoff
				http.Error(w, "slow down", http.StatusTooManyRequests)
			case 2:
				w.Header().Set("Retry-After", "5")
				http.Error(w, "slow down", http.StatusTooManyRequests)
			default:
				w.WriteHeader(http.StatusOK)
			}
		}))
		defer srv.Close()

		var pauses []time.Duration
		reg := obs.NewRegistry()
		w := &Worker{Coordinator: srv.URL, Metrics: NewWorkerMetrics(reg),
			sleepFn: func(ctx context.Context, d time.Duration) bool {
				pauses = append(pauses, d)
				return true
			}}
		if err := w.report(context.Background(), srv.Client(), "lease-1", sweep.Result{}); err != nil {
			t.Fatalf("report did not ride out 429s: %v", err)
		}
		want := []time.Duration{time.Second, 5 * time.Second}
		if len(pauses) != len(want) || pauses[0] != want[0] || pauses[1] != want[1] {
			t.Errorf("report pauses %v, want %v", pauses, want)
		}
		if got := w.Metrics.Backoff429.Value(); got != 2 {
			t.Errorf("backoff_429_total = %d, want 2", got)
		}
	})

	t.Run("lease", func(t *testing.T) {
		var leases atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/v1/lease" {
				http.NotFound(w, req)
				return
			}
			if leases.Add(1) == 1 {
				w.Header().Set("Retry-After", "7")
				http.Error(w, "slow down", http.StatusTooManyRequests)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		}))
		defer srv.Close()

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		pause := make(chan time.Duration, 1)
		w := &Worker{Coordinator: srv.URL, ID: "ra", Parallel: 1,
			Poll: 10 * time.Millisecond, Client: srv.Client(),
			sleepFn: func(ctx context.Context, d time.Duration) bool {
				select {
				case pause <- d:
				default:
				}
				cancel() // one observed backoff is the whole test
				return false
			}}
		if err := w.Run(ctx); err != nil {
			t.Fatalf("worker run: %v", err)
		}
		select {
		case d := <-pause:
			if d != 7*time.Second {
				t.Errorf("lease 429 pause = %v, want 7s (Retry-After)", d)
			}
		default:
			t.Fatal("worker never backed off")
		}
	})
}
