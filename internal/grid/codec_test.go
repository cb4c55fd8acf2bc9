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
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

// The state files as they were written when the server kept decoded
// results: the same fields and tags, with the log as sweep.WireResult
// values.
type (
	decodedSweepSnapshot struct {
		ID        string             `json:"id"`
		Nonce     string             `json:"nonce,omitempty"`
		Tenant    string             `json:"tenant,omitempty"`
		Jobs      []jobEntry         `json:"jobs"`
		Log       []sweep.WireResult `json:"log"`
		Incidents []incidentEntry    `json:"incidents,omitempty"`
	}
	decodedStateSnapshot struct {
		Version int                    `json:"version"`
		Sweeps  []decodedSweepSnapshot `json:"sweeps"`
	}
)

// legacyResult is a result as encoded before results dropped their job:
// the fields and tags of the earlier sweep.Result wire form.
type legacyResult struct {
	Index  int           `json:"index"`
	Job    sweep.Job     `json:"job,omitzero"`
	Res    *core.Results `json:"res,omitempty"`
	Err    string        `json:"err,omitempty"`
	WallNS int64         `json:"wall_ns,omitempty"`
	Timing *sweep.Timing `json:"timing,omitempty"`
}

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
			ResultRequest{LeaseID: lease.LeaseID, Result: r.Wire()}, nil); err != nil || status != http.StatusOK {
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
	r := sweep.WireResult{Index: 4, Res: &core.Results{Stats: &pipeline.Stats{Committed: 9}},
		Timing: &sweep.Timing{QueueNS: 1}}
	for _, tc := range []struct {
		results              []sweep.WireResult
		submitted, completed int
	}{
		{nil, 0, 0},
		{[]sweep.WireResult{}, 3, 1},
		{[]sweep.WireResult{r}, 5, 5},
		{[]sweep.WireResult{r, {Index: 1, Err: "<x>"}}, 6, 2},
	} {
		var enc []json.RawMessage
		if tc.results != nil {
			enc = []json.RawMessage{}
		}
		for _, res := range tc.results {
			enc = append(enc, sweep.MarshalWireResult(res))
		}
		got := batchJSON("s-1 <id>", 17, enc, tc.submitted, tc.completed)
		batch := ResultBatch{SweepID: "s-1 <id>", Next: 17, Results: tc.results,
			Submitted: tc.submitted, Completed: tc.completed, Done: tc.submitted > 0 && tc.completed == tc.submitted}
		want, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("batch moved:\n got %s\nwant %s", got, want)
		}
		var back ResultBatch
		if err := back.UnmarshalJSON(got); err != nil || !reflect.DeepEqual(back, batch) {
			t.Errorf("batch decodes to %+v (err %v), want %+v", back, err, batch)
		}
	}
}

// TestResultRequestCodec: a report, with or without the next lease label,
// encodes as json.Marshal of the plain struct writes it and decodes back to
// an equal value, and a body in any other form (whitespace, reordered keys,
// an older worker's job) decodes as encoding/json decodes it.
func TestResultRequestCodec(t *testing.T) {
	type plain ResultRequest
	for _, rr := range []ResultRequest{
		{LeaseID: "w/0-1", Result: sweep.WireResult{Index: 4, Res: &core.Results{Stats: &pipeline.Stats{Committed: 9}},
			WallNS: 5, Timing: &sweep.Timing{SimulateNS: 3}}},
		{LeaseID: `<w> & "x"/0-2`, Result: sweep.WireResult{Index: 1, Err: "boom <&>"}},
		{LeaseID: "w/0-3", Result: sweep.WireResult{Index: 2, Res: &core.Results{Stats: &pipeline.Stats{Committed: 1}}},
			Next: "w/0"},
		{LeaseID: `<w> & "x"/1-4`, Result: sweep.WireResult{Index: 3, Err: "boom"}, Next: `<w> & "x"/1`},
	} {
		got, err := rr.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(plain(rr))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("report moved:\n got %s\nwant %s", got, want)
		}
		var back ResultRequest
		if err := back.UnmarshalJSON(got); err != nil || !reflect.DeepEqual(back, rr) {
			t.Errorf("report decodes to %+v (err %v), want %+v", back, err, rr)
		}
	}
	for _, body := range []string{
		`{"lease_id": "w/0-1", "result": {"index": 2, "err": "x"}}`,
		`{"result":{"index":2,"err":"x"},"lease_id":"w/0-1"}`,
		`{"lease_id":"w/0-1","result":{"index":2,"job":{"Bench":"mcf"},"err":"x"}}`,
		`{"lease_id":"w/0-1","result":{"index":2,"err":"x"}`,
		`{"lease_id":7,"result":{"index":2,"err":"x"}}`,
		`{"lease_id":"w/0-1","result":5}`,
		`{"lease_id": "w/0-1", "result": {"index": 2, "err": "x"}, "next": "w/0"}`,
		`{"next":"w/0","lease_id":"w/0-1","result":{"index":2,"err":"x"}}`,
		`{"lease_id":"w/0-1","result":{"index":2,"err":"x"},"next":"w/0","job":{"Bench":"mcf"}}`,
		`{"lease_id":"w/0-1","result":{"index":2,"err":"x"},"next":7}`,
		`{"lease_id":"w/0-1","result":{"index":2,"err":"x"},"next":"w/0"`,
	} {
		var got ResultRequest
		var want plain
		err, werr := got.UnmarshalJSON([]byte(body)), json.Unmarshal([]byte(body), &want)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, ResultRequest(want)) {
			t.Errorf("%s decodes to %+v (err %v), encoding/json to %+v (err %v)", body, got, err, want, werr)
		}
		// A refused body's error names the request, not the method-free
		// copy the fallback decodes into.
		if werr != nil {
			if want := strings.Replace(werr.Error(), "plain.", "ResultRequest.", 1); err.Error() != want {
				t.Errorf("%s is refused with %q, want %q", body, err, want)
			}
		}
	}
	var batch ResultBatch
	if err := batch.UnmarshalJSON([]byte(`{"sweep_id":1}`)); err == nil || !strings.Contains(err.Error(), "field ResultBatch.sweep_id") {
		t.Errorf("a batch with a numeric sweep id is refused with %v, want an error naming ResultBatch.sweep_id", err)
	}
}

// TestReportWithJobAccepted: a worker built before reports dropped the job
// still sends it. Its report completes the lease, the streamed result
// carries no job at all, and the coordinator keeps the job it leased, not
// the one reported.
func TestReportWithJobAccepted(t *testing.T) {
	server, url := startServer(t, ServerOptions{})
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
	body, _ := json.Marshal(struct {
		LeaseID string       `json:"lease_id"`
		Result  legacyResult `json:"result"`
	}{lease.LeaseID, legacyResult{Index: lease.Index, Job: sent, Res: &core.Results{Stats: &pipeline.Stats{Committed: 5}}}})
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
	streamed := getBody(t, url+"/v1/sweeps/"+sub.SweepID+"/results?after=0")
	if bytes.Contains(streamed, []byte(`"job"`)) {
		t.Errorf("the streamed result carries a job: %s", streamed)
	}
	var batch ResultBatch
	if err := json.Unmarshal(streamed, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 || batch.Results[0].Res == nil || batch.Results[0].Res.Committed != 5 {
		t.Fatalf("streamed %+v, want the reported result", batch.Results)
	}
	server.mu.Lock()
	held := server.sweeps[sub.SweepID].slots[lease.Index].job
	server.mu.Unlock()
	if held != jobs[0] {
		t.Errorf("the coordinator holds job %s after the report, want the leased %s", held, jobs[0])
	}
}

// TestMalformedReportRejected: a report whose res is not a result object
// is refused with 400, like one with neither res nor err.
func TestMalformedReportRejected(t *testing.T) {
	jobs := smallJobs(t, "exchange2")[:1]
	server, url := startServer(t, ServerOptions{})
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
		if rr.LeaseID != fmt.Sprintf("L-%d", i+1) || got.Index != i+1 || got.WallNS <= 0 || got.Timing == nil {
			t.Errorf("report %d decodes to %+v", i, rr)
		}
		if i == 0 && (got.Err != "" || !reflect.DeepEqual(got.Res, want)) {
			t.Errorf("report 0 carries err %q and a result equal to a local run: %v", got.Err, reflect.DeepEqual(got.Res, want))
		}
		if i == 1 && (got.Err == "" || got.Res != nil) {
			t.Errorf("report 1 carries err %q and res %v, want the job's error", got.Err, got.Res)
		}
	}
}

// presetJobs returns every job of the Quick and Full presets and of Quick
// at Threads=2.
func presetJobs(t *testing.T) []sweep.Job {
	t.Helper()
	smt := sweep.Quick()
	smt.Threads = []int{2}
	var all []sweep.Job
	for _, spec := range []sweep.MatrixSpec{sweep.Quick(), sweep.Full(), smt} {
		jobs, err := spec.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, jobs...)
	}
	return all
}

// matchesPlain fails t unless v (a LeaseResponse or SubmitRequest value)
// encodes as json.Marshal of its method-free copy p writes, and decodes back
// through back to a value equal to v.
func matchesPlain(t *testing.T, v json.Marshaler, p any, back json.Unmarshaler) {
	t.Helper()
	got, err := v.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := mustJSON(t, p); !bytes.Equal(got, want) {
		t.Fatalf("%T moved:\n got %s\nwant %s", v, got, want)
	}
	if err := back.UnmarshalJSON(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reflect.ValueOf(back).Elem().Interface(), v) {
		t.Fatalf("%s decodes to %+v", got, back)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobBodiesMatchJSON: every body that carries jobs (a lease, a
// submission and an opJob journal frame) encodes as json.Marshal of the
// plain struct writes it and decodes back to an equal value, for every
// preset job; a body in any other form decodes as encoding/json decodes
// it, with a refusal naming the public type.
func TestJobBodiesMatchJSON(t *testing.T) {
	type plainLease LeaseResponse
	type plainSubmit SubmitRequest
	jobs := presetJobs(t)
	for i, j := range jobs {
		lr := LeaseResponse{LeaseID: fmt.Sprintf("w <%d>/0-%d", i, i), Index: i, Job: j, TTLMS: 120_000}
		if i%2 == 1 {
			lr.SweepID = "s-" + lr.LeaseID
		}
		matchesPlain(t, lr, plainLease(lr), new(LeaseResponse))
	}
	for _, sr := range []SubmitRequest{{Jobs: jobs, Nonce: "n <&>"}, {Jobs: jobs[:1]}, {Nonce: "n-1"}, {}} {
		matchesPlain(t, sr, plainSubmit(sr), new(SubmitRequest))
	}
	for _, index := range []int{0, 7} {
		rec := journalRecord{Op: opJob, Sweep: "s-1", Index: index, Job: &jobs[index]}
		frame, err := appendFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustJSON(t, rec); !bytes.Equal(frame[8:], want) {
			t.Fatalf("job frame at index %d moved:\n got %s\nwant %s", index, frame[8:], want)
		}
	}

	job := string(sweep.AppendJob(nil, &jobs[0]))
	for _, body := range []string{
		`{"lease_id": "w/0-1", "index": 2, "job": ` + job + `, "ttl_ms": 5}`,
		`{"index":2,"lease_id":"w/0-1","job":` + job + `,"ttl_ms":5}`,
		`{"lease_id":"w/0-1","index":2,"job":null,"ttl_ms":5,"sweep_id":"s"}`,
		`{"lease_id":"w/0-1","index":2,"job":` + job + `,"ttl_ms":5,"extra":1}`,
		`{"lease_id":"w/0-1","index":2,"job":` + job + `,"ttl_ms":5`,
		`{"lease_id":"w/0-1","index":2,"job":{"Seed":"x"},"ttl_ms":5}`,
	} {
		var got LeaseResponse
		var want plainLease
		err, werr := got.UnmarshalJSON([]byte(body)), json.Unmarshal([]byte(body), &want)
		checkFallback(t, body, "LeaseResponse", got, LeaseResponse(want), err, werr)
	}
	for _, body := range []string{
		`{ "jobs": [` + job + `], "nonce": "n" }`,
		`{"nonce":"n","jobs":[` + job + `]}`,
		`{"jobs":null}`,
		`{"jobs":[` + job + `],}`,
		`{"jobs":[` + job + `,]}`,
		`{"jobs":[{"Bench":1}]}`,
		`{"nonce":7}`,
	} {
		var got SubmitRequest
		var want plainSubmit
		err, werr := got.UnmarshalJSON([]byte(body)), json.Unmarshal([]byte(body), &want)
		checkFallback(t, body, "SubmitRequest", got, SubmitRequest(want), err, werr)
	}
}

// checkFallback fails t unless a body decoded to got with err as
// encoding/json decoded it to want with werr, a refusal naming the type.
func checkFallback(t *testing.T, body, name string, got, want any, err, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
		t.Errorf("%s decodes to %+v (err %v), encoding/json to %+v (err %v)", body, got, err, want, werr)
	}
	if werr != nil && err != nil {
		if want := regexp.MustCompile(`plain\w*\.`).ReplaceAllString(werr.Error(), name+"."); err.Error() != want {
			t.Errorf("%s is refused with %q, want %q", body, err, want)
		}
	}
}
