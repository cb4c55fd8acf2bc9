package grid

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

// The state files as they were written when the server kept decoded
// results: the same fields and tags, with the log as sweep.Result values.
type (
	decodedSweepSnapshot struct {
		ID        string          `json:"id"`
		Nonce     string          `json:"nonce,omitempty"`
		Tenant    string          `json:"tenant,omitempty"`
		Jobs      []jobEntry      `json:"jobs"`
		Log       []sweep.Result  `json:"log"`
		Incidents []incidentEntry `json:"incidents,omitempty"`
	}
	decodedStateSnapshot struct {
		Version int                    `json:"version"`
		Sweeps  []decodedSweepSnapshot `json:"sweeps"`
	}
)

// reencodes fails t unless b is exactly json.Marshal of b decoded into a
// fresh *T: bytes written from encoded results must equal what encoding
// the decoded values writes.
func reencodes[T any](t *testing.T, what string, b []byte) {
	t.Helper()
	v := new(T)
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v\n%s", what, err, b)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("%s moved:\n got %s\nwant %s", what, b, want)
	}
}

// getBody fetches url and returns the 200 response body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return b
}

// TestEncodedResultsByteIdentical: the server encodes each delivered result
// once and journals, snapshots and streams those bytes. The journal frames,
// the snapshot and every result batch must equal json.Marshal of the old
// journalRecord, snapshot and ResultBatch holding the decoded results, for
// results with and without histograms, err and timing.
func TestEncodedResultsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	server := NewServer(ServerOptions{})
	if err := server.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	jobs := smallJobs(t, "exchange2") // baseline (no histograms), wfc, wfb
	var sub SubmitResponse
	if _, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: jobs}, &sub); err != nil {
		t.Fatal(err)
	}
	results := srv.URL + "/v1/sweeps/" + sub.SweepID + "/results?after="
	reencodes[ResultBatch](t, "empty batch", getBody(t, results+"0"))

	histograms := 0
	for i := range jobs {
		lease := leaseOne(t, srv.URL)
		r := sweep.Result{Index: lease.Index, Wall: time.Duration(i+1) * time.Millisecond}
		res, timing, err := sweep.LocalExecutor{}.ExecuteTimed(ctx, lease.Index, lease.Job)
		if err != nil {
			t.Fatal(err)
		}
		if res.OccD != nil {
			histograms++
		}
		switch i {
		case 0:
			r.Res, r.Timing = res, timing
		case 1:
			r.Res = res
		default:
			r.Err, r.Timing = errors.New(`cell <failed> & "quoted"`), &sweep.Timing{CacheNS: 7}
		}
		if status, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+"/v1/result", "", "",
			ResultRequest{LeaseID: lease.LeaseID, Result: r}, nil); err != nil || status != http.StatusOK {
			t.Fatalf("report %d: status %d, err %v", i, status, err)
		}
	}
	if histograms == 0 || histograms == len(jobs) {
		t.Fatalf("test setup: %d of %d results carry histograms, want some but not all", histograms, len(jobs))
	}
	for _, after := range []string{"0", "1", "3"} {
		reencodes[ResultBatch](t, "batch after "+after, getBody(t, results+after))
	}

	wal, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for off := 0; off+8 <= len(wal); frames++ {
		n := int(binary.BigEndian.Uint32(wal[off:]))
		reencodes[journalRecord](t, "journal frame", wal[off+8:off+8+n])
		off += 8 + n
	}
	if want := 1 + len(jobs) + len(jobs); frames != want {
		t.Fatalf("journal holds %d frames, want %d (open, jobs, results)", frames, want)
	}

	if err := server.CloseState(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	reencodes[decodedStateSnapshot](t, "snapshot", snap)
	var decoded decodedStateSnapshot
	if err := json.Unmarshal(snap, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Sweeps) != 1 || len(decoded.Sweeps[0].Log) != len(jobs) {
		t.Fatalf("snapshot holds %+v, want one sweep with %d results", decoded.Sweeps, len(jobs))
	}
}

// TestBatchJSONMatchesMarshal pins batchJSON against json.Marshal of
// ResultBatch field by field, including a nil log (results null) and an
// empty tail (results []).
func TestBatchJSONMatchesMarshal(t *testing.T) {
	r := sweep.Result{Index: 4, Job: sweep.Job{Bench: "mcf", Mode: "wfc"},
		Res: &core.Results{Stats: &pipeline.Stats{Committed: 9}}, Timing: &sweep.Timing{QueueNS: 1}}
	for _, tc := range []struct {
		results              []sweep.Result
		submitted, completed int
	}{
		{nil, 0, 0},
		{[]sweep.Result{}, 3, 1},
		{[]sweep.Result{r}, 5, 5},
		{[]sweep.Result{r, {Index: 1, Err: errors.New("<x>")}}, 6, 2},
	} {
		var enc []json.RawMessage
		if tc.results != nil {
			enc = []json.RawMessage{}
		}
		for _, res := range tc.results {
			enc = append(enc, encodeResult(res))
		}
		got := batchJSON("s-1 <id>", 17, enc, tc.submitted, tc.completed)
		want, err := json.Marshal(ResultBatch{SweepID: "s-1 <id>", Next: 17, Results: tc.results,
			Submitted: tc.submitted, Completed: tc.completed, Done: tc.submitted > 0 && tc.completed == tc.submitted})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("batch moved:\n got %s\nwant %s", got, want)
		}
	}
}

// TestReportWithJobAccepted: a worker built before reports dropped the job
// still sends it. Its report completes the lease, and the streamed result
// carries the job the coordinator leased, not the one reported.
func TestReportWithJobAccepted(t *testing.T) {
	_, url := startServer(t, Options{})
	ctx := context.Background()
	jobs := smallJobs(t, "exchange2")[:1]
	var sub SubmitResponse
	if _, err := doJSON(ctx, http.DefaultClient, http.MethodPost, url+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: jobs}, &sub); err != nil {
		t.Fatal(err)
	}
	lease := leaseOne(t, url)
	sent := lease.Job
	sent.Mode = "reported"
	body, _ := json.Marshal(ResultRequest{LeaseID: lease.LeaseID, Result: sweep.Result{Index: lease.Index, Job: sent,
		Res: &core.Results{Stats: &pipeline.Stats{Committed: 5}}}})
	if !bytes.Contains(body, []byte(`"job":`)) {
		t.Fatal("test setup: the report carries no job")
	}
	resp, err := http.Post(url+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report with a job: status %d", resp.StatusCode)
	}
	var batch ResultBatch
	if err := json.Unmarshal(getBody(t, url+"/v1/sweeps/"+sub.SweepID+"/results?after=0"), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 || batch.Results[0].Res == nil || batch.Results[0].Res.Committed != 5 ||
		batch.Results[0].Job != jobs[0] {
		t.Fatalf("streamed %+v, want the reported result under the leased job", batch.Results)
	}
}

// TestMalformedReportRejected: a report whose res is not a result object
// is refused with 400, like one with neither res nor err.
func TestMalformedReportRejected(t *testing.T) {
	jobs := smallJobs(t, "exchange2")[:1]
	server, url := startServer(t, Options{})
	runAsync(t, server, url, jobs)
	lease := leaseOne(t, url)
	for _, body := range []string{
		`{"lease_id":"` + lease.LeaseID + `","result":{"index":0,"res":"fast"}}`,
		`{"lease_id":"` + lease.LeaseID + `","result":{"index":0,"res":{"OccD":{"counts":[-1]}}}}`,
		`{"lease_id":"` + lease.LeaseID + `","result":{"index":0}}`,
	} {
		resp, err := http.Post(url+"/v1/result", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestWorkerReportOmitsJob: the body a worker posts to /v1/result leaves
// the job out, and decodes under ResultRequest, as any coordinator reads
// it, to the leased index and the job's res or err, wall and timing.
func TestWorkerReportOmitsJob(t *testing.T) {
	good := smallJobs(t, "exchange2")[1]
	bad := good
	bad.Bench = "no-such-bench"
	leases := []LeaseResponse{
		{LeaseID: "L-1", Index: 1, Job: good, TTLMS: 60_000},
		{LeaseID: "L-2", Index: 2, Job: bad, TTLMS: 60_000},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch req.URL.Path {
		case "/v1/lease":
			if len(leases) == 0 {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			writeJSON(w, leases[0])
			leases = leases[1:]
		case "/v1/result":
			b, _ := io.ReadAll(req.Body)
			if bodies = append(bodies, b); len(bodies) == 2 {
				cancel()
			}
		}
	}))
	defer srv.Close()
	w := &Worker{Coordinator: srv.URL, ID: "w", Parallel: 1, Poll: time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := sweep.LocalExecutor{}.Execute(context.Background(), 1, good)
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 {
		t.Fatalf("worker reported %d results, want 2", len(bodies))
	}
	for i, body := range bodies {
		var raw struct{ Result map[string]json.RawMessage }
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		if _, ok := raw.Result["job"]; ok {
			t.Errorf("report %d sends the job: %s", i, body)
		}
		var rr ResultRequest
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		got := rr.Result
		if rr.LeaseID != fmt.Sprintf("L-%d", i+1) || got.Index != i+1 || got.Job != (sweep.Job{}) ||
			got.Wall <= 0 || got.Timing == nil {
			t.Errorf("report %d decodes to %+v", i, rr)
		}
		if i == 0 && (got.Err != nil || !reflect.DeepEqual(got.Res, want)) {
			t.Errorf("report 0 carries err %v and a result equal to a local run: %v", got.Err, reflect.DeepEqual(got.Res, want))
		}
		if i == 1 && (got.Err == nil || got.Res != nil) {
			t.Errorf("report 1 carries err %v and res %v, want the job's error", got.Err, got.Res)
		}
	}
}
