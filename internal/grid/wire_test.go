package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
	clk.Advance(5 * time.Second) // queue wait: submit -> lease grant
	lease := leaseOne(t, srv.URL)
	clk.Advance(2 * time.Second) // grant -> report round trip

	res, timing, err := sweep.LocalExecutor{}.ExecuteTimed(ctx, lease.Index, lease.Job)
	if err != nil {
		t.Fatal(err)
	}
	timing.SimulateNS = int64(7 * time.Millisecond) // pin for exact assertions
	timing.CacheNS = int64(3 * time.Millisecond)
	if status, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/result", "", "",
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
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: smallJobs(t, "exchange2")[:1]}, &resp); err != nil {
		t.Fatal(err)
	}
	lease := leaseOne(t, srv.URL)
	res, err := sweep.LocalExecutor{}.Execute(ctx, lease.Index, lease.Job)
	if err != nil {
		t.Fatal(err)
	}
	if status, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/result", "", "",
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

	_, url := startServer(t, ServerOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go oldPeerWorker(t, ctx, url)

	if remote := runWith(remoteExec(t, url)); remote != local {
		t.Errorf("untimed peer changed sweep output:\n%s\nvs\n%s", remote, local)
	}
}
