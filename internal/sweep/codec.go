package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"time"

	"safespec/internal/core"
)

// jobHashDomain versions the canonical encoding that Job.Hash covers. Bump
// it whenever the meaning of an existing config field changes, so stale
// result-cache entries and mixed-version grid workers can never alias.
const jobHashDomain = "safespec/sweep.Job/v1\n"

// appendCanonical appends the canonical JSON encoding of the job: the
// pipeline configuration is normalized first, so two jobs that run
// identically — e.g. a zero config and one with the Table I defaults
// spelled out — encode to identical bytes. The bytes are json.Marshal's
// (AppendJob).
func (j Job) appendCanonical(b []byte) []byte {
	j.Config.Pipeline = j.Config.Pipeline.Normalize()
	return AppendJob(b, &j)
}

// Hash returns the job's content address: a hex SHA-256 over the versioned
// canonical encoding. It is the key of internal/resultcache and the
// identity of a job on the grid wire protocol.
func (j Job) Hash() string {
	b := j.appendCanonical(append(make([]byte, 0, 2<<10), jobHashDomain...))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WireResult is the JSON form of a Result on the grid wire and in the
// coordinator's journal, a plain struct that one encoding/json pass reads
// or writes. Err travels as a string, since an error value does not survive
// a JSON round trip. All numeric fields are integers, so the round trip is
// exact and sink rows computed from a decoded result are byte-identical.
// The job is left out: every receiver holds the job of each index, and an
// older peer's "job" key is ignored as unknown.
type WireResult struct {
	Index  int           `json:"index"`
	Res    *core.Results `json:"res,omitempty"`
	Err    string        `json:"err,omitempty"`
	WallNS int64         `json:"wall_ns,omitempty"`
	// Timing is optional on the wire: peers that predate it omit the field,
	// and decoders that predate it ignore unknown JSON keys, so mixed-version
	// fleets interoperate.
	Timing *Timing `json:"timing,omitempty"`
}

// Wire returns the wire form of r, without its job.
func (r Result) Wire() WireResult {
	w := WireResult{Index: r.Index, Res: r.Res, WallNS: int64(r.Wall), Timing: r.Timing}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return w
}

// Result rebuilds the result with a zero Job; the receiver supplies the job
// it holds. The error cause keeps its message, not its concrete type.
func (w WireResult) Result() Result {
	r := Result{Index: w.Index, Res: w.Res, Wall: time.Duration(w.WallNS), Timing: w.Timing}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	return r
}

// Executor runs one job and returns its simulator results. It is the seam
// that lets Run be backed by in-process simulation (LocalExecutor), a
// content-addressed result cache (resultcache.Executor), or a fleet of
// worker processes (grid.Coordinator) — sinks, ordering and the figures
// layer are identical for all of them. Execute is called concurrently from
// Run's worker pool and must be safe for concurrent use.
type Executor interface {
	Execute(ctx context.Context, index int, j Job) (*core.Results, error)
}

// Submitter is an optional Executor extension: when the executor of a Run
// implements it, Run announces the complete job matrix once, before any
// Execute call. A remote backend uses the announcement to enqueue the whole
// sweep in a single request and start the fleet draining it immediately;
// executors wrapping another executor (like the result cache) deliberately
// do not forward the announcement, so only the jobs that actually reach the
// inner executor are ever submitted.
type Submitter interface {
	Submit(ctx context.Context, jobs []Job) error
}

// LocalExecutor simulates jobs in-process. It is the default executor of
// Run and the terminal executor of a grid worker.
type LocalExecutor struct{}

// Execute builds and runs the job's program, recovering panics into errors.
func (LocalExecutor) Execute(ctx context.Context, index int, j Job) (*core.Results, error) {
	return executeJob(ctx, index, j)
}
