package grid

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

// scriptRecords builds a realistic journal script: one sweep opened with a
// nonce, jobs enqueued, some results delivered, and a second sweep opened
// and closed (so replay must drop it).
func scriptRecords(t testing.TB) []journalRecord {
	t.Helper()
	jobs := smallJobs(t, "exchange2")
	if len(jobs) < 3 {
		t.Fatalf("need at least 3 jobs, have %d", len(jobs))
	}
	recs := []journalRecord{
		{Op: opOpen, Sweep: "s-aaaa", Nonce: "n-1", Tenant: "anonymous"},
	}
	for i, j := range jobs {
		recs = append(recs, journalRecord{Op: opJob, Sweep: "s-aaaa", Index: i, Job: &j})
	}
	recs = append(recs,
		journalRecord{Op: opOpen, Sweep: "s-bbbb", Nonce: "n-2", Tenant: "anonymous"},
		journalRecord{Op: opJob, Sweep: "s-bbbb", Index: 0, Job: &jobs[0]},
	)
	// Two results for the first sweep, delivered out of index order (the
	// completion log is completion-ordered, not index-ordered).
	for _, idx := range []int{1, 0} {
		recs = append(recs, journalRecord{Op: opResult, Sweep: "s-aaaa", Result: &sweep.Result{
			Index: idx, Job: jobs[idx],
			Res: &core.Results{Stats: &pipeline.Stats{Committed: uint64(idx + 1)}},
		}})
	}
	recs = append(recs, journalRecord{Op: opClose, Sweep: "s-bbbb"})
	return recs
}

// writeFrames renders records into the on-disk journal frame format.
func writeFrames(t *testing.T, recs []journalRecord) []byte {
	t.Helper()
	dir := t.TempDir()
	st, recovered, torn, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || torn != 0 {
		t.Fatalf("fresh dir recovered %d sweeps, %d torn bytes", len(recovered), torn)
	}
	for _, rec := range recs {
		if err := st.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Abandon the store without close(): the bytes on disk are exactly what
	// a kill -9 would leave behind.
	return b
}

// stateDirWithJournal stages a state dir holding only a journal — the
// layout a coordinator killed before its first snapshot compaction leaves.
func stateDirWithJournal(t *testing.T, wal []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestJournalRoundTrip: records survive the frame encoding byte-exactly.
func TestJournalRoundTrip(t *testing.T) {
	recs := scriptRecords(t)
	wal := writeFrames(t, recs)
	dir := stateDirWithJournal(t, wal)
	got, torn, err := readJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("intact journal reported %d torn bytes", torn)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Op != recs[i].Op || got[i].Sweep != recs[i].Sweep ||
			got[i].Nonce != recs[i].Nonce || got[i].Index != recs[i].Index {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestJournalTornTailDiscarded: every way a kill -9 can mangle the tail —
// truncated header, truncated payload, corrupted payload byte — loses only
// the damaged frame and everything after it, never an intact prefix.
func TestJournalTornTailDiscarded(t *testing.T) {
	recs := scriptRecords(t)
	wal := writeFrames(t, recs)
	// Frame boundaries for surgery.
	var bounds []int
	off := 0
	for off < len(wal) {
		n := int(binary.BigEndian.Uint32(wal[off:]))
		off += 8 + n
		bounds = append(bounds, off)
	}
	if len(bounds) != len(recs) {
		t.Fatalf("frame walk found %d frames, want %d", len(bounds), len(recs))
	}

	cases := []struct {
		name string
		mut  func() []byte
		want int // intact records expected
	}{
		{"truncated header", func() []byte { return wal[:bounds[1]+3] }, 2},
		{"truncated payload", func() []byte { return wal[:bounds[2]+20] }, 3},
		{"corrupt payload byte", func() []byte {
			c := append([]byte(nil), wal...)
			c[bounds[0]+12] ^= 0xff // inside frame 2's payload
			return c
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut()
			dir := stateDirWithJournal(t, b)
			got, torn, err := readJournal(filepath.Join(dir, "journal.wal"))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.want {
				t.Fatalf("recovered %d records, want %d", len(got), tc.want)
			}
			wantTorn := len(b)
			if tc.want > 0 {
				wantTorn = len(b) - bounds[tc.want-1]
			}
			if torn != wantTorn {
				t.Errorf("torn bytes %d, want %d", torn, wantTorn)
			}
		})
	}
}

// TestReplayIdempotent: a crash between snapshot rename and journal
// truncation replays records the snapshot already holds; the merged state
// must hold exactly one copy of everything, in original order.
func TestReplayIdempotent(t *testing.T) {
	recs := scriptRecords(t)
	// Snapshot as if everything up to the first result was compacted.
	jobs := smallJobs(t, "exchange2")
	snap := stateSnapshot{Version: stateFormatVersion, Sweeps: []sweepSnapshot{{
		ID: "s-aaaa", Nonce: "n-1", Tenant: "anonymous",
		Jobs: []jobEntry{{Index: 0, Job: jobs[0]}, {Index: 1, Job: jobs[1]}},
		Log:  []json.RawMessage{encodeResult(sweep.Result{Index: 1, Job: jobs[1], Res: &core.Results{Stats: &pipeline.Stats{Committed: 2}}})},
	}}}
	recovered, err := replayState(snap, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d sweeps, want 1 (s-bbbb was closed)", len(recovered))
	}
	rs := recovered[0]
	if rs.ID != "s-aaaa" || rs.Nonce != "n-1" || rs.Tenant != "anonymous" {
		t.Fatalf("identity lost in replay: %+v", rs)
	}
	if len(rs.Jobs) != len(jobs) {
		t.Errorf("replay holds %d jobs, want %d", len(rs.Jobs), len(jobs))
	}
	if len(rs.Log) != 2 {
		t.Fatalf("replay holds %d results, want 2 (duplicates must coalesce)", len(rs.Log))
	}
	// The snapshot's copy of result index 1 came first, so completion order
	// is preserved: [1, 0].
	if rs.Log[0].Index != 1 || rs.Log[1].Index != 0 {
		t.Errorf("completion order not preserved: [%d, %d]", rs.Log[0].Index, rs.Log[1].Index)
	}
}

// TestOpenStateCompacts: reopening a state dir folds the journal into
// snapshot.json and restarts the journal empty, and a third open sees the
// same state from the snapshot alone.
func TestOpenStateCompacts(t *testing.T) {
	wal := writeFrames(t, scriptRecords(t))
	dir := stateDirWithJournal(t, wal)

	_, rec1, _, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "journal.wal")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated after compaction: %v, size %d", err, fi.Size())
	}
	// Abandon without close — the snapshot alone must carry the state.
	_, rec2, torn, err := openState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("compacted dir reported %d torn bytes", torn)
	}
	if len(rec1) != 1 || len(rec2) != 1 {
		t.Fatalf("recovered %d then %d sweeps, want 1 and 1", len(rec1), len(rec2))
	}
	if rec1[0].ID != rec2[0].ID || len(rec1[0].Log) != len(rec2[0].Log) || len(rec1[0].Jobs) != len(rec2[0].Jobs) {
		t.Errorf("snapshot round-trip drifted: %+v vs %+v", rec1[0], rec2[0])
	}
}

// TestOpenStateVersionGuard: a future-format state dir is refused, and a
// damaged snapshot (only ever published by atomic rename) is refused
// rather than silently forgetting every sweep.
func TestOpenStateVersionGuard(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openState(dir); err == nil {
		t.Fatal("openState accepted a format-99 state dir")
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "snapshot.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openState(dir2); err == nil {
		t.Fatal("openState accepted a corrupt snapshot")
	}
}

// TestCrashRecoveryProperty kills a journaled coordinator at randomized
// (seeded) journal offsets and asserts every recovery is consistent: the
// recovered completion log is a prefix of the delivered results (nothing
// lost that was intact, nothing duplicated), no job is both completed and
// requeued, and the sweep stays addressable by its submission nonce.
func TestCrashRecoveryProperty(t *testing.T) {
	recs := scriptRecords(t)
	wal := writeFrames(t, recs)
	// The result delivery order encoded in the script for sweep s-aaaa.
	var resultOrder []int
	jobCount := 0
	for _, rec := range recs {
		if rec.Sweep != "s-aaaa" {
			continue
		}
		switch rec.Op {
		case opJob:
			jobCount++
		case opResult:
			resultOrder = append(resultOrder, rec.Result.Index)
		}
	}

	rng := rand.New(rand.NewSource(1337))
	offsets := []int{0, 1, 7, 8, len(wal) - 1, len(wal)} // edges always
	for i := 0; i < 24; i++ {
		offsets = append(offsets, rng.Intn(len(wal)+1))
	}
	for _, cut := range offsets {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := stateDirWithJournal(t, wal[:cut])
			server := NewServer(ServerOptions{})
			if err := server.OpenState(dir); err != nil {
				t.Fatalf("recovery at offset %d failed: %v", cut, err)
			}
			defer server.CloseState()

			server.mu.Lock()
			st := server.sweeps["s-aaaa"]
			nonceID := server.byNonce["n-1"]
			if _, ghost := server.sweeps["s-bbbb"]; ghost && cut == len(wal) {
				server.mu.Unlock()
				t.Fatal("closed sweep s-bbbb resurrected by full replay")
			}
			server.mu.Unlock()
			if st == nil {
				// The opOpen frame itself was torn off: an empty recovery is
				// the consistent outcome.
				if cut > len(wal)/4 {
					t.Fatalf("offset %d lost the sweep entirely", cut)
				}
				return
			}
			if nonceID != "s-aaaa" {
				t.Fatalf("nonce table inconsistent: n-1 -> %q", nonceID)
			}

			st.mu.Lock()
			defer st.mu.Unlock()
			// Completion log must be a prefix of the delivery order.
			if len(st.log) > len(resultOrder) {
				t.Fatalf("recovered %d results, only %d were delivered", len(st.log), len(resultOrder))
			}
			seen := make(map[int]bool)
			for i, res := range decodeLog(t, st.log) {
				if res.Index != resultOrder[i] {
					t.Fatalf("log[%d] = index %d, want %d (order not preserved)", i, res.Index, resultOrder[i])
				}
				if seen[res.Index] {
					t.Fatalf("result index %d duplicated in recovered log", res.Index)
				}
				seen[res.Index] = true
				if res.Res == nil || res.Res.Committed == 0 {
					t.Fatalf("recovered result %d lost its payload", res.Index)
				}
			}
			// No job may be both completed and pending, and every recovered
			// job must be exactly one of the two.
			completed, pending := 0, 0
			for idx, sl := range st.slots {
				if sl.done {
					completed++
					if !seen[idx] {
						t.Fatalf("slot %d completed but absent from the log", idx)
					}
				} else {
					pending++
					if seen[idx] {
						t.Fatalf("slot %d is pending but already logged", idx)
					}
				}
			}
			if completed != len(st.log) {
				t.Fatalf("%d completed slots vs %d logged results", completed, len(st.log))
			}
			if completed+pending != len(st.slots) || len(st.slots) > jobCount {
				t.Fatalf("slot accounting: %d completed + %d pending, %d slots, %d journaled jobs",
					completed, pending, len(st.slots), jobCount)
			}
		})
	}
}

// TestRecoveryServesCursorsAndRequeues is the end-to-end restart contract:
// a second Server opening the same state dir serves the old sweep id, its
// result cursor replays delivered results byte-for-byte, and the undelivered
// jobs drain through fresh workers to completion.
func TestRecoveryServesCursorsAndRequeues(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	jobs := smallJobs(t, "exchange2")

	first := NewServer(ServerOptions{})
	if err := first.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(first.Handler())
	var resp SubmitResponse
	if _, err := doJSON(ctx, srv1.Client(), http.MethodPost, srv1.URL+"/v1/sweeps", "", "",
		SubmitRequest{Jobs: jobs, Nonce: "n-e2e"}, &resp); err != nil {
		t.Fatal(err)
	}
	// Complete exactly one job by hand, then "kill -9": close the listener
	// without CloseState, leaving only the journal behind.
	lease := leaseOne(t, srv1.URL)
	if _, err := doJSON(ctx, srv1.Client(), http.MethodPost, srv1.URL+"/v1/result", "", "",
		ResultRequest{LeaseID: lease.LeaseID, Result: sweep.Result{
			Index: lease.Index, Job: lease.Job,
			Res: &core.Results{Stats: &pipeline.Stats{Committed: 7}},
		}}, nil); err != nil {
		t.Fatal(err)
	}
	var before ResultBatch
	if _, err := doJSON(ctx, srv1.Client(), http.MethodGet,
		srv1.URL+"/v1/sweeps/"+resp.SweepID+"/results?after=0", "", "", nil, &before); err != nil {
		t.Fatal(err)
	}
	if len(before.Results) != 1 {
		t.Fatalf("precondition: %d results before the crash, want 1", len(before.Results))
	}
	srv1.Close()

	second := NewServer(ServerOptions{})
	if err := second.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer second.CloseState()
	srv2 := httptest.NewServer(second.Handler())
	defer srv2.Close()

	// The old sweep id resolves, and the pre-crash cursor replays the
	// delivered result identically.
	var after ResultBatch
	if status, err := doJSON(ctx, srv2.Client(), http.MethodGet,
		srv2.URL+"/v1/sweeps/"+resp.SweepID+"/results?after=0", "", "", nil, &after); err != nil || status != http.StatusOK {
		t.Fatalf("recovered sweep id did not resolve: status %d, %v", status, err)
	}
	if len(after.Results) != 1 || after.Results[0].Index != before.Results[0].Index ||
		after.Results[0].Res.Committed != before.Results[0].Res.Committed {
		t.Fatalf("recovered cursor diverged: %+v vs %+v", after.Results, before.Results)
	}
	// A resubmission with the same nonce resolves to the recovered sweep —
	// the client-side recovery key.
	var re SubmitResponse
	if _, err := doJSON(ctx, srv2.Client(), http.MethodPost, srv2.URL+"/v1/sweeps", "", "",
		SubmitRequest{Nonce: "n-e2e"}, &re); err != nil {
		t.Fatal(err)
	}
	if re.SweepID != resp.SweepID {
		t.Fatalf("nonce resolved to %s, want recovered sweep %s", re.SweepID, resp.SweepID)
	}
	// The remaining jobs drain through fresh workers.
	stop := startWorkers(t, srv2.URL, 2)
	defer stop()
	cursor := 0
	got := make(map[int]uint64)
	for {
		var batch ResultBatch
		if status, err := doJSON(ctx, srv2.Client(), http.MethodGet,
			fmt.Sprintf("%s/v1/sweeps/%s/results?after=%d&wait=5s", srv2.URL, resp.SweepID, cursor),
			"", "", nil, &batch); err != nil || status != http.StatusOK {
			t.Fatalf("drain poll: status %d, %v", status, err)
		}
		for _, res := range batch.Results {
			if _, dup := got[res.Index]; dup {
				t.Fatalf("result %d streamed twice across the restart", res.Index)
			}
			got[res.Index] = res.Res.Committed
		}
		cursor = batch.Next
		if batch.Done {
			break
		}
	}
	if len(got) != len(jobs) {
		t.Fatalf("drained %d results, want %d", len(got), len(jobs))
	}
	if got[lease.Index] != 7 {
		t.Fatalf("pre-crash result re-simulated: committed %d, want the journaled 7", got[lease.Index])
	}
}

// FuzzJournalReplay restarts a journaled coordinator on arbitrary records.
// The input holds one record payload per line; each is framed with a
// correct length and CRC, so it reaches the decoder and replay instead of
// being cut off as a torn tail. Recovery must not panic, the compacting
// CloseState must succeed, and reopening the compacted directory must
// recover the same sweeps. The seed corpus under testdata/fuzz holds
// scriptRecords journals.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, payloads []byte) {
		var wal []byte
		for _, p := range bytes.Split(payloads, []byte("\n")) {
			wal = binary.BigEndian.AppendUint32(wal, uint32(len(p)))
			wal = binary.BigEndian.AppendUint32(wal, crc32.ChecksumIEEE(p))
			wal = append(wal, p...)
		}
		dir := stateDirWithJournal(t, wal)
		first := NewServer(ServerOptions{})
		if err := first.OpenState(dir); err != nil {
			t.Fatalf("open: %v", err)
		}
		want := sweepsDigest(t, first)
		if err := first.CloseState(); err != nil {
			t.Fatalf("close: %v", err)
		}
		second := NewServer(ServerOptions{})
		if err := second.OpenState(dir); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer second.CloseState()
		if got := sweepsDigest(t, second); got != want {
			t.Fatalf("reopened state differs:\n%s\nvs\n%s", got, want)
		}
	})
}

// sweepsDigest renders a server's sweeps as JSON sorted by id: identity,
// owner, every slot's job, the completion log in order, and the incident
// history of unfinished jobs.
func sweepsDigest(t *testing.T, s *Server) string {
	t.Helper()
	type sweepDigest struct {
		ID, Nonce, Tenant string
		Jobs              map[int]sweep.Job
		Log               []sweep.Result
		Incidents         map[int][]taskIncident
	}
	s.mu.Lock()
	var out []sweepDigest
	for _, st := range s.sweeps {
		st.mu.Lock()
		d := sweepDigest{ID: st.id, Nonce: st.nonce, Tenant: st.tenant.Name,
			Jobs: make(map[int]sweep.Job), Log: decodeLog(t, st.log), Incidents: make(map[int][]taskIncident)}
		for idx, sl := range st.slots {
			d.Jobs[idx] = sl.job
			if !sl.done && sl.task != nil {
				hist := s.coord.incidentHistory(sl.task)
				sort.Slice(hist, func(i, j int) bool {
					a, b := hist[i], hist[j]
					return a.Worker+"\x00"+a.Kind+"\x00"+a.Message < b.Worker+"\x00"+b.Kind+"\x00"+b.Message
				})
				d.Incidents[idx] = hist
			}
		}
		st.mu.Unlock()
		out = append(out, d)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// decodeLog decodes a completion log of encoded results.
func decodeLog(t *testing.T, log []json.RawMessage) []sweep.Result {
	t.Helper()
	out := make([]sweep.Result, len(log))
	for i, enc := range log {
		if err := json.Unmarshal(enc, &out[i]); err != nil {
			t.Fatalf("log[%d]: %v", i, err)
		}
	}
	return out
}
