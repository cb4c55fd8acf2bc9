package grid

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"safespec/internal/sweep"
)

// The coordinator's durable state lives under one directory (-state-dir):
//
//	<dir>/VERSION        format version, one decimal line
//	<dir>/snapshot.json  full sweep state at the last compaction (atomic rename)
//	<dir>/journal.wal    mutations appended since the snapshot
//
// Every sweep mutation — creation, job enqueue, result delivery, release —
// is appended to the journal as one framed record:
//
//	[4B big-endian payload length][4B big-endian CRC32-IEEE][JSON payload]
//
// A restart replays snapshot + journal; a torn or corrupt tail (the frame a
// kill -9 interrupted) is discarded cleanly, losing at most the final
// un-acknowledged append. Replay is idempotent, so duplicate records — a
// crash between snapshot rename and journal truncation replays both copies
// — coalesce instead of corrupting state. After replay the store compacts:
// the merged state becomes the new snapshot and the journal restarts empty.
//
// Appends are NOT fsynced: surviving kill -9 needs the bytes in the kernel
// page cache, not on the platter, and a per-result fsync would gate sweep
// throughput on disk latency. Snapshots are synced before rename, so the
// compacted baseline survives power loss too; journal appends since the
// last snapshot trade that durability for throughput deliberately.

// stateFormatVersion is the on-disk format version of both files. Bump it
// when the record or snapshot encoding changes incompatibly.
const stateFormatVersion = 1

// Journal record operations.
const (
	opOpen   = "open"   // sweep created (id, nonce, tenant name)
	opJob    = "job"    // job enqueued into a sweep
	opResult = "result" // terminal result appended to a sweep's completion log
	opClose  = "close"  // sweep released (client close or TTL abandonment)
	// opIncident records one contained worker failure against a job, so
	// quarantine history survives a restart (a poison job must not get a
	// fresh set of K workers to burn after every coordinator crash).
	// Readers predating the op ignore it, so the format version stays 1.
	opIncident = "incident"
)

// journalRecord is one journal frame's payload. Exactly the fields for its
// Op are set; the rest stay at their zero values and are omitted.
type journalRecord struct {
	Op     string     `json:"op"`
	Sweep  string     `json:"sweep"`
	Nonce  string     `json:"nonce,omitempty"`
	Tenant string     `json:"tenant,omitempty"`
	Index  int        `json:"index,omitempty"`
	Job    *sweep.Job `json:"job,omitempty"`
	// Result is an opResult's sweep.WireResult, encoded once when it was
	// logged; replay decodes it, ignoring the "job" key of older results.
	Result json.RawMessage `json:"result,omitempty"`
	// Worker, Kind and Message carry an opIncident's taskIncident.
	Worker  string `json:"worker,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Message string `json:"message,omitempty"`
}

// stateSnapshot is the snapshot.json format.
type stateSnapshot struct {
	Version int             `json:"version"`
	Sweeps  []sweepSnapshot `json:"sweeps"`
}

// sweepSnapshot is one sweep's durable state: identity, ownership, the
// submitted jobs, and the completion log in completion order (the order
// client result cursors index into).
type sweepSnapshot struct {
	ID     string     `json:"id"`
	Nonce  string     `json:"nonce,omitempty"`
	Tenant string     `json:"tenant,omitempty"`
	Jobs   []jobEntry `json:"jobs"`
	// Log holds each sweep.WireResult as encoded on delivery; replay
	// decodes them. The jobs of logged results are in Jobs.
	Log []json.RawMessage `json:"log"`
	// Incidents is the contained-failure history of jobs not yet
	// completed, feeding the quarantine threshold across restarts (history
	// for completed jobs is dropped at compaction).
	Incidents []incidentEntry `json:"incidents,omitempty"`
}

// jobEntry is one submitted job keyed by its sweep index.
type jobEntry struct {
	Index int       `json:"index"`
	Job   sweep.Job `json:"job"`
}

// incidentEntry is one recorded incident keyed by its job's sweep index.
type incidentEntry struct {
	Index   int    `json:"index"`
	Worker  string `json:"worker"`
	Kind    string `json:"kind"`
	Message string `json:"message,omitempty"`
}

// recoveredSweep is one sweep reconstructed by replay, in a form the
// Server adopts directly.
type recoveredSweep struct {
	ID, Nonce, Tenant string
	Jobs              map[int]sweep.Job
	Log               []sweep.WireResult
	Incidents         map[int][]taskIncident
	logged            map[int]bool // indexes already in Log (replay dedupe)
}

// stateStore journals sweep mutations under a state directory. Its mutex
// is the only lock taken while holding Server.mu: a result is journaled
// inside the same Server.mu critical section that appends it to the
// in-memory completion log, so journal order always equals log order and
// recovered cursors stay valid.
type stateStore struct {
	dir string

	mu     sync.Mutex
	f      *os.File // journal.wal, open for append
	closed bool
}

// openState opens (or creates) a state directory, replays its snapshot and
// journal, compacts the merged state into a fresh snapshot, and returns
// the store ready for appends plus the recovered sweeps (in original
// creation order) and the count of torn tail bytes discarded.
func openState(dir string) (*stateStore, []recoveredSweep, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("grid: state dir: %w", err)
	}
	vpath := filepath.Join(dir, "VERSION")
	if b, err := os.ReadFile(vpath); err == nil {
		v, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil || v != stateFormatVersion {
			return nil, nil, 0, fmt.Errorf("grid: state dir %s holds format %q, this binary writes format %d",
				dir, strings.TrimSpace(string(b)), stateFormatVersion)
		}
	} else if os.IsNotExist(err) {
		if werr := os.WriteFile(vpath, []byte(strconv.Itoa(stateFormatVersion)+"\n"), 0o644); werr != nil {
			return nil, nil, 0, fmt.Errorf("grid: state dir: %w", werr)
		}
	} else {
		return nil, nil, 0, fmt.Errorf("grid: state dir: %w", err)
	}

	var snap stateSnapshot
	spath := filepath.Join(dir, "snapshot.json")
	if b, err := os.ReadFile(spath); err == nil {
		if jerr := json.Unmarshal(b, &snap); jerr != nil {
			// snapshot.json is only ever published by atomic rename, so a
			// parse failure means external damage — refuse rather than
			// silently forget every sweep.
			return nil, nil, 0, fmt.Errorf("grid: corrupt snapshot %s: %w", spath, jerr)
		}
		if snap.Version != stateFormatVersion {
			return nil, nil, 0, fmt.Errorf("grid: snapshot %s holds format %d, this binary writes format %d",
				spath, snap.Version, stateFormatVersion)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("grid: state dir: %w", err)
	}

	jpath := filepath.Join(dir, "journal.wal")
	records, torn, err := readJournal(jpath)
	if err != nil {
		return nil, nil, 0, err
	}
	recovered, err := replayState(snap, records)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("grid: corrupt snapshot %s: %w", spath, err)
	}

	st := &stateStore{dir: dir}
	// Compact: the merged state becomes the new baseline snapshot, and the
	// journal restarts empty (also clipping any torn tail off disk).
	if err := st.writeSnapshot(recoveredSnapshots(recovered)); err != nil {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("grid: state dir: %w", err)
	}
	st.f = f
	return st, recovered, torn, nil
}

// readJournal parses every intact frame of the journal, reporting how many
// trailing bytes were discarded as torn or corrupt. A missing journal is
// an empty one.
func readJournal(path string) ([]journalRecord, int, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("grid: read journal: %w", err)
	}
	var records []journalRecord
	off := 0
	for {
		if off+8 > len(b) {
			break
		}
		n := int(binary.BigEndian.Uint32(b[off:]))
		sum := binary.BigEndian.Uint32(b[off+4:])
		if off+8+n > len(b) {
			break // torn final frame
		}
		payload := b[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt frame: everything after it is suspect too
		}
		var rec journalRecord
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			break
		}
		records = append(records, rec)
		off += 8 + n
	}
	return records, len(b) - off, nil
}

// replayState applies the journal on top of the snapshot, idempotently:
// duplicate opens, job re-adds and result re-deliveries (the crash window
// between snapshot rename and journal truncation replays records the
// snapshot already holds) coalesce to one copy, in original order. It fails
// only on a snapshot result that does not decode; a journal result that
// does not decode ends replay there, like a corrupt frame.
func replayState(snap stateSnapshot, records []journalRecord) ([]recoveredSweep, error) {
	byID := make(map[string]*recoveredSweep)
	var order []string
	add := func(id, nonce, tenant string) *recoveredSweep {
		if rs, ok := byID[id]; ok {
			return rs
		}
		rs := &recoveredSweep{ID: id, Nonce: nonce, Tenant: tenant,
			Jobs: make(map[int]sweep.Job), Incidents: make(map[int][]taskIncident),
			logged: make(map[int]bool)}
		byID[id] = rs
		order = append(order, id)
		return rs
	}
	for _, ss := range snap.Sweeps {
		rs := add(ss.ID, ss.Nonce, ss.Tenant)
		for _, je := range ss.Jobs {
			rs.Jobs[je.Index] = je.Job
		}
		for _, enc := range ss.Log {
			res, err := sweep.DecodeWireResult(enc)
			if err != nil {
				return nil, err
			}
			if !rs.logged[res.Index] {
				rs.logged[res.Index] = true
				rs.Log = append(rs.Log, res)
			}
		}
		for _, ie := range ss.Incidents {
			rs.Incidents[ie.Index] = append(rs.Incidents[ie.Index],
				taskIncident{Worker: ie.Worker, Kind: ie.Kind, Message: ie.Message})
		}
	}
replay:
	for _, rec := range records {
		switch rec.Op {
		case opOpen:
			add(rec.Sweep, rec.Nonce, rec.Tenant)
		case opJob:
			if rs, ok := byID[rec.Sweep]; ok && rec.Job != nil {
				if _, dup := rs.Jobs[rec.Index]; !dup {
					rs.Jobs[rec.Index] = *rec.Job
				}
			}
		case opResult:
			var res *sweep.WireResult
			if rec.Result != nil && json.Unmarshal(rec.Result, &res) != nil {
				break replay
			}
			if rs, ok := byID[rec.Sweep]; ok && res != nil && !rs.logged[res.Index] {
				rs.logged[res.Index] = true
				rs.Log = append(rs.Log, *res)
			}
		case opIncident:
			// Quarantine counts DISTINCT workers, so the duplicate entries a
			// snapshot-overlap replay produces cannot tip a job over the
			// threshold; no dedupe needed.
			if rs, ok := byID[rec.Sweep]; ok && rec.Worker != "" {
				rs.Incidents[rec.Index] = append(rs.Incidents[rec.Index],
					taskIncident{Worker: rec.Worker, Kind: rec.Kind, Message: rec.Message})
			}
		case opClose:
			if _, ok := byID[rec.Sweep]; ok {
				delete(byID, rec.Sweep)
			}
		}
	}
	out := make([]recoveredSweep, 0, len(byID))
	for _, id := range order {
		if rs, ok := byID[id]; ok {
			out = append(out, *rs)
		}
	}
	return out, nil
}

// recoveredSnapshots renders recovered sweeps back into snapshot form.
func recoveredSnapshots(recovered []recoveredSweep) []sweepSnapshot {
	out := make([]sweepSnapshot, 0, len(recovered))
	for _, rs := range recovered {
		ss := sweepSnapshot{ID: rs.ID, Nonce: rs.Nonce, Tenant: rs.Tenant}
		for _, res := range rs.Log {
			ss.Log = append(ss.Log, sweep.MarshalWireResult(res))
		}
		for idx, j := range rs.Jobs {
			ss.addJob(idx, j, rs.logged[idx], rs.Incidents[idx])
		}
		out = append(out, ss.sorted())
	}
	return out
}

// addJob records one job of the sweep and, while the job is unfinished,
// its incident history, so a restart cannot reset a poison job's
// quarantine progress.
func (ss *sweepSnapshot) addJob(idx int, job sweep.Job, done bool, hist []taskIncident) {
	ss.Jobs = append(ss.Jobs, jobEntry{Index: idx, Job: job})
	if done {
		return // a completed job's incident history is spent
	}
	for _, ti := range hist {
		ss.Incidents = append(ss.Incidents, incidentEntry{Index: idx, Worker: ti.Worker, Kind: ti.Kind, Message: ti.Message})
	}
}

// sorted orders the jobs by index and the incidents by index and worker,
// so equal states compact to equal snapshots.
func (ss sweepSnapshot) sorted() sweepSnapshot {
	sort.Slice(ss.Jobs, func(i, j int) bool { return ss.Jobs[i].Index < ss.Jobs[j].Index })
	sort.Slice(ss.Incidents, func(i, j int) bool {
		a, b := ss.Incidents[i], ss.Incidents[j]
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Worker < b.Worker
	})
	return ss
}

// appendFrame appends rec's journal frame to b. A result is framed from
// its logged bytes as they are and a job through the job codec, byte for
// byte as json.Marshal of the record would write them (an opJob record sets
// only sweep, index and job). On an encoding failure b is unchanged.
func appendFrame(b []byte, rec journalRecord) ([]byte, error) {
	off := len(b)
	b = append(b, make([]byte, 8)...)
	switch {
	case rec.Result != nil:
		b = fmt.Appendf(b, `{"op":%s,"sweep":%s,"result":%s}`, sweep.AppendString(nil, rec.Op), sweep.AppendString(nil, rec.Sweep), rec.Result)
	case rec.Op == opJob:
		b = sweep.AppendString(append(b, `{"op":"job","sweep":`...), rec.Sweep)
		if rec.Index != 0 {
			b = strconv.AppendInt(append(b, `,"index":`...), int64(rec.Index), 10)
		}
		b = append(sweep.AppendJob(append(b, `,"job":`...), rec.Job), '}')
	default:
		payload, err := json.Marshal(rec)
		if err != nil {
			return b[:off], fmt.Errorf("grid: journal encode: %w", err)
		}
		b = append(b, payload...)
	}
	binary.BigEndian.PutUint32(b[off:], uint32(len(b)-off-8))
	binary.BigEndian.PutUint32(b[off+4:], crc32.ChecksumIEEE(b[off+8:]))
	return b, nil
}

// write appends frames built by appendFrame in one Write call, so no
// concurrent write interleaves with them (a short write to a local file is
// an I/O error). A failure degrades durability, not the running process,
// whose in-memory state is authoritative; the caller logs it.
func (st *stateStore) write(frames []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("grid: journal closed")
	}
	if _, err := st.f.Write(frames); err != nil {
		return fmt.Errorf("grid: journal append: %w", err)
	}
	return nil
}

// writeSnapshot publishes sweeps as snapshot.json via temp+fsync+rename,
// so a crash at any point leaves either the old or the new snapshot intact.
func (st *stateStore) writeSnapshot(sweeps []sweepSnapshot) error {
	if sweeps == nil {
		sweeps = []sweepSnapshot{}
	}
	b, err := json.Marshal(stateSnapshot{Version: stateFormatVersion, Sweeps: sweeps})
	if err != nil {
		return fmt.Errorf("grid: snapshot encode: %w", err)
	}
	tmp, err := os.CreateTemp(st.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(st.dir, "snapshot.json")); err != nil {
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	return nil
}

// close writes a final snapshot of sweeps, truncates the journal (its
// contents are folded into the snapshot) and closes the file. Part of
// graceful shutdown; a kill -9 skips it and recovers from the journal.
func (st *stateStore) close(sweeps []sweepSnapshot) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	err := st.writeSnapshot(sweeps)
	if terr := st.f.Truncate(0); err == nil && terr != nil {
		err = fmt.Errorf("grid: journal truncate: %w", terr)
	}
	if cerr := st.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("grid: journal close: %w", cerr)
	}
	return err
}
