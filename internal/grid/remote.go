package grid

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// RemoteExecutor runs a sweep on a persistent external coordinator
// (cmd/safespec-coordinator, or the in-process `safespec-bench -serve`
// degenerate case). It implements sweep.Executor — sinks, in-order
// delivery and byte-identical output are untouched — plus the
// sweep.Submitter extension: when sweep.Run announces the job matrix, the
// whole sweep is enqueued in one POST /v1/sweeps. When the matrix is not
// announced (e.g. a result cache wraps this executor and only misses reach
// the grid), Execute submits jobs one at a time to a lazily-opened sweep.
//
// Results arrive as a stream of batches: one background goroutine per
// sweep long-polls GET /v1/sweeps/{id}/results?after=N&wait=D, and each
// response carries every result completed since cursor N. Execute calls
// wait on that shared stream instead of polling their own index, so a
// sweep costs O(result batches) HTTP round trips — not O(cells) — however
// wide the matrix. Close releases the sweep's server-side state (and stops
// the stream); an unclosed sweep (crashed client) is abandoned by the
// server after its SweepTTL.
type RemoteExecutor struct {
	// URL is the coordinator base URL ("http://host:port" or, for a TLS
	// coordinator, "https://host:port" — pair it with a Client from
	// NewHTTPClient when the certificate is not signed by a system root).
	URL string
	// Token authenticates every request ("" sends no Authorization header).
	Token string
	// Client is the HTTP client; nil selects one whose timeout comfortably
	// exceeds the long-poll window.
	Client *http.Client
	// PollWait is the long-poll duration requested per result-batch poll
	// (default 25s; the server caps it at one minute).
	PollWait time.Duration
	// Log receives structured progress records (nil discards them).
	Log *slog.Logger

	mu        sync.Mutex
	sweepID   string
	nonce     string            // stable submission nonce: the recovery key across coordinator restarts
	jobs      map[int]sweep.Job // everything submitted, for re-submission after a restart
	received  map[int]bool      // indexes already dispatched (dedupes re-streamed results)
	submitted map[int]bool
	waiters   map[int]chan sweep.Result // Execute calls parked on an index
	arrived   map[int]sweep.Result      // streamed results nobody asked for yet
	streamCtx context.CancelFunc        // non-nil while the streamer runs
	streamEnd chan struct{}             // closed when the streamer exits
	streamErr error                     // terminal stream failure, set before streamEnd closes

	// recMu serializes restart recovery: one goroutine re-resolves the
	// sweep by nonce while the rest observe the already-updated sweep id.
	recMu sync.Mutex
}

// defaultPollWait balances held-open connections against poll chatter; it
// must stay well under the client timeout below.
const defaultPollWait = 25 * time.Second

func (r *RemoteExecutor) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return defaultRemoteClient
}

var defaultRemoteClient = &http.Client{Timeout: 90 * time.Second}

// call sends one JSON request to the coordinator path (see doJSON).
func (r *RemoteExecutor) call(ctx context.Context, method, path string, in, out any) (int, error) {
	return doJSON(ctx, r.client(), method, r.URL+path, r.Token, "", in, out)
}

// NewHTTPClient builds an HTTP client for coordinator URLs. A non-empty
// caFile names a PEM certificate bundle trusted in place of the system
// roots — the self-signed or private-CA fleet deployment (the coordinator's
// own -tls-cert file works directly as the bundle). timeout <= 0 selects
// the long-poll-safe default used by RemoteExecutor.
func NewHTTPClient(caFile string, timeout time.Duration) (*http.Client, error) {
	if timeout <= 0 {
		timeout = defaultRemoteClient.Timeout
	}
	client := &http.Client{Timeout: timeout}
	if caFile != "" {
		pem, err := os.ReadFile(caFile)
		if err != nil {
			return nil, fmt.Errorf("tls ca: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("tls ca: no PEM certificates in %s", caFile)
		}
		client.Transport = &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: pool},
			// Mirror the relevant DefaultTransport tuning; long-poll
			// connections are reused heavily.
			MaxIdleConns:        100,
			IdleConnTimeout:     90 * time.Second,
			TLSHandshakeTimeout: 10 * time.Second,
		}
	}
	return client, nil
}

func (r *RemoteExecutor) log() *slog.Logger {
	if r.Log != nil {
		return r.Log
	}
	return slog.New(slog.DiscardHandler)
}

// Submit implements sweep.Submitter: it opens a sweep on the coordinator
// carrying the whole job matrix, so the fleet starts draining it before the
// first Execute call even polls. Transport errors are retried briefly — a
// coordinator mid-restart should not fail the sweep.
func (r *RemoteExecutor) Submit(ctx context.Context, jobs []sweep.Job) error {
	r.mu.Lock()
	nonce := r.nonceLocked()
	r.mu.Unlock()
	resp, err := r.openSweep(ctx, jobs, nonce)
	if err != nil {
		return fmt.Errorf("grid: submit sweep to %s: %w", r.URL, err)
	}
	r.mu.Lock()
	r.sweepID = resp.SweepID
	r.submitted = make(map[int]bool, len(jobs))
	r.jobs = make(map[int]sweep.Job, len(jobs))
	for i, j := range jobs {
		r.submitted[i] = true
		r.jobs[i] = j
	}
	r.mu.Unlock()
	r.log().Info("sweep submitted", "sweep", resp.SweepID, "coordinator", r.URL, "jobs", len(jobs))
	return nil
}

// nonceLocked returns the executor's stable submission nonce, minting it
// on first use. One nonce spans the whole sweep's lifetime (Close resets
// it): it makes the creation POST idempotent against lost responses AND
// serves as the recovery key a restarted coordinator resolves the sweep
// by. Caller holds r.mu.
func (r *RemoteExecutor) nonceLocked() string {
	if r.nonce == "" {
		r.nonce = newNonce()
	}
	return r.nonce
}

// openSweep POSTs a sweep-creation request carrying jobs (nil opens an
// empty sweep for incremental submission). The nonce makes the retried
// POST idempotent: if an attempt landed but its response was lost, the
// coordinator hands back the existing sweep instead of double-running it.
func (r *RemoteExecutor) openSweep(ctx context.Context, jobs []sweep.Job, nonce string) (SubmitResponse, error) {
	req := SubmitRequest{Jobs: jobs, Nonce: nonce}
	var resp SubmitResponse
	status, err := r.retry(ctx, func() (int, error) {
		return r.call(ctx, http.MethodPost, "/v1/sweeps", req, &resp)
	})
	if err == nil && status != http.StatusOK {
		err = statusErr(status)
	}
	return resp, err
}

// Execute submits the job if the matrix announcement did not already cover
// it, then waits for the shared result stream to deliver its index.
func (r *RemoteExecutor) Execute(ctx context.Context, index int, j sweep.Job) (*core.Results, error) {
	res, _, err := r.ExecuteTimed(ctx, index, j)
	return res, err
}

// ExecuteTimed is Execute returning the streamed result's span breakdown
// (stamped by the coordinator and the reporting worker; nil when either
// predates timing), so sweep.Run records Timing for remote sweeps.
func (r *RemoteExecutor) ExecuteTimed(ctx context.Context, index int, j sweep.Job) (*core.Results, *sweep.Timing, error) {
	id, err := r.ensure(ctx, index, j)
	if err != nil {
		return nil, nil, err
	}

	r.mu.Lock()
	if res, ok := r.arrived[index]; ok {
		delete(r.arrived, index)
		r.mu.Unlock()
		return res.Res, res.Timing, res.Err
	}
	ch := make(chan sweep.Result, 1)
	if r.waiters == nil {
		r.waiters = make(map[int]chan sweep.Result)
	}
	r.waiters[index] = ch
	r.startStreamLocked(id)
	end := r.streamEnd
	r.mu.Unlock()

	select {
	case res := <-ch:
		return res.Res, res.Timing, res.Err
	case <-end:
		r.mu.Lock()
		err := r.streamErr
		delete(r.waiters, index)
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("grid: sweep %s job %d: %w", id, index, err)
	case <-ctx.Done():
		r.mu.Lock()
		delete(r.waiters, index)
		r.mu.Unlock()
		// A delivery may have raced the cancellation; prefer it.
		select {
		case res := <-ch:
			return res.Res, res.Timing, res.Err
		default:
			return nil, nil, ctx.Err()
		}
	}
}

// startStreamLocked launches the batch-streaming goroutine for the sweep if
// it is not already running. Caller holds r.mu. The stream's lifetime is
// the executor's, not any one Execute call's: it is stopped by Close (or by
// a terminal coordinator answer such as 404 after a restart).
func (r *RemoteExecutor) startStreamLocked(id string) {
	if r.streamCtx != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.streamCtx = cancel
	r.streamEnd = make(chan struct{})
	r.streamErr = nil
	go r.stream(ctx, id, r.streamEnd)
}

// maxStreamRecoveries bounds consecutive restart recoveries before the
// stream gives up: a coordinator that loses the sweep again and again
// without ever delivering a batch is misconfigured, not mid-restart.
const maxStreamRecoveries = 5

// stream long-polls the sweep's result batches and dispatches each result
// to the Execute call waiting on its index (or parks it for an Execute yet
// to ask). It exits on Close's cancellation or a terminal coordinator
// answer; transport faults and 5xx are ridden out by retry, and a
// coordinator restart (404 for the sweep id, or a connection that stays
// refused past the retry budget) is ridden out by re-resolving the sweep
// through its submission nonce and resuming the batch cursor.
func (r *RemoteExecutor) stream(ctx context.Context, id string, end chan struct{}) {
	defer close(end)
	wait := r.PollWait
	if wait <= 0 {
		wait = defaultPollWait
	}
	after := 0
	recoveries := 0
	recoverSweep := func(cause string) bool {
		if recoveries++; recoveries > maxStreamRecoveries {
			return false
		}
		newID, err := r.reresolve(ctx, id)
		if err != nil {
			r.log().Warn("sweep recovery failed", "sweep", id, "cause", cause, "err", err.Error())
			return false
		}
		if newID != id {
			// A coordinator without durable state opened a fresh sweep: its
			// log starts empty, so the cursor restarts and the received-set
			// dedupe swallows any cells streamed twice.
			id, after = newID, 0
		}
		return true
	}
	for {
		path := fmt.Sprintf("/v1/sweeps/%s/results?after=%d&wait=%s", id, after, wait)
		var batch ResultBatch
		status, err := r.retry(ctx, func() (int, error) {
			return r.call(ctx, http.MethodGet, path, nil, &batch)
		})
		switch {
		case ctx.Err() != nil:
			r.setStreamErr(fmt.Errorf("stream stopped: %w", ctx.Err()))
			return
		case err != nil:
			// The retry budget is exhausted — the shape of a coordinator
			// down for longer than a blip. Re-resolving retries the
			// connection again and re-establishes the sweep if the process
			// that answers is a fresh one.
			if !recoverSweep("unreachable: " + err.Error()) {
				r.setStreamErr(fmt.Errorf("grid: stream %s: %w", id, err))
				return
			}
		case status == http.StatusOK:
			recoveries = 0
			for _, res := range batch.Results {
				r.dispatch(res)
			}
			after = batch.Next
		case status == http.StatusNotFound:
			// The coordinator restarted (or abandoned the sweep past its
			// TTL). The sweep id is random so it can never collide with
			// another client's; the nonce re-resolves our own sweep — on a
			// durable coordinator the very same one, cursor intact.
			if !recoverSweep("sweep id lost (coordinator restart)") {
				r.setStreamErr(fmt.Errorf("grid: sweep %s expired on coordinator %s (restart without -state-dir, or client idle past the sweep TTL?)", id, r.URL))
				return
			}
		case status == http.StatusBadRequest:
			// A stale cursor (recovered log shorter than our position, which
			// a lost unsynced journal tail can produce): restart the stream
			// from zero and let the received-set drop the duplicates.
			if after == 0 || !recoverSweep("stale cursor") {
				r.setStreamErr(fmt.Errorf("grid: stream %s: %w", id, statusErr(status)))
				return
			}
			after = 0
		default:
			r.setStreamErr(fmt.Errorf("grid: stream %s: %w", id, statusErr(status)))
			return
		}
	}
}

// reresolve recovers from a coordinator that no longer serves lostID: it
// re-submits the sweep under the executor's stable nonce — a coordinator
// with durable state answers with the surviving sweep, a stateless one
// opens a fresh sweep — then idempotently re-posts every known job, so
// cells the restart never saw are enqueued and cells it recovered are
// no-ops. Returns the current sweep id. Concurrent callers serialize on
// recMu; late ones observe the already-updated id and return immediately.
func (r *RemoteExecutor) reresolve(ctx context.Context, lostID string) (string, error) {
	r.recMu.Lock()
	defer r.recMu.Unlock()
	r.mu.Lock()
	if r.sweepID != lostID && r.sweepID != "" {
		id := r.sweepID
		r.mu.Unlock()
		return id, nil
	}
	nonce := r.nonce
	jobs := make(map[int]sweep.Job, len(r.jobs))
	for i, j := range r.jobs {
		jobs[i] = j
	}
	r.mu.Unlock()
	if nonce == "" {
		return "", fmt.Errorf("sweep %s has no submission nonce to recover by", lostID)
	}
	var resp SubmitResponse
	status, err := r.retry(ctx, func() (int, error) {
		return r.call(ctx, http.MethodPost, "/v1/sweeps", SubmitRequest{Nonce: nonce}, &resp)
	})
	if err == nil && status != http.StatusOK {
		err = statusErr(status)
	}
	if err != nil {
		return "", fmt.Errorf("re-resolve by nonce: %w", err)
	}
	indexes := make([]int, 0, len(jobs))
	for i := range jobs {
		indexes = append(indexes, i)
	}
	sort.Ints(indexes)
	for _, i := range indexes {
		status, err := r.retry(ctx, func() (int, error) {
			return r.call(ctx, http.MethodPost, "/v1/sweeps/"+resp.SweepID+"/jobs",
				JobRequest{Index: i, Job: jobs[i]}, nil)
		})
		if err == nil && status != http.StatusOK {
			err = statusErr(status)
		}
		if err != nil {
			return "", fmt.Errorf("re-submit job %d: %w", i, err)
		}
	}
	r.mu.Lock()
	r.sweepID = resp.SweepID
	r.mu.Unlock()
	r.log().Info("sweep recovered after coordinator restart",
		"lost", lostID, "sweep", resp.SweepID, "jobs_resubmitted", len(jobs), "resumed", resp.SweepID == lostID)
	return resp.SweepID, nil
}

func (r *RemoteExecutor) setStreamErr(err error) {
	r.mu.Lock()
	r.streamErr = err
	r.mu.Unlock()
}

// dispatch hands one streamed result to the Execute call parked on its
// index, or stores it until that call arrives (batches deliver results in
// completion order, which need not match the order Execute calls ask). An
// index already dispatched is dropped: restart recovery can replay the
// stream from an earlier cursor, and each cell must reach sweep.Run
// exactly once.
func (r *RemoteExecutor) dispatch(res sweep.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.received[res.Index] {
		return
	}
	if r.received == nil {
		r.received = make(map[int]bool)
	}
	r.received[res.Index] = true
	if ch, ok := r.waiters[res.Index]; ok {
		delete(r.waiters, res.Index)
		ch <- res
		return
	}
	if r.arrived == nil {
		r.arrived = make(map[int]sweep.Result)
	}
	r.arrived[res.Index] = res
}

// ensure opens the sweep on first use and submits this job if the matrix
// announcement did not already carry it. Only sweep creation runs under the
// mutex (one request per sweep); per-job submissions claim their index
// first and post outside the lock, so concurrent cache misses submit in
// parallel instead of serializing behind one another's round trips.
func (r *RemoteExecutor) ensure(ctx context.Context, index int, j sweep.Job) (string, error) {
	r.mu.Lock()
	if r.sweepID == "" {
		resp, err := r.openSweep(ctx, nil, r.nonceLocked())
		if err != nil {
			r.mu.Unlock()
			return "", fmt.Errorf("grid: open sweep on %s: %w", r.URL, err)
		}
		r.sweepID = resp.SweepID
		r.submitted = make(map[int]bool)
		r.jobs = make(map[int]sweep.Job)
		r.log().Info("sweep opened for incremental submission", "sweep", resp.SweepID, "coordinator", r.URL)
	}
	id := r.sweepID
	claimed := r.submitted[index]
	if !claimed {
		// Claim before posting: a concurrent Execute for the same index (not
		// that Run produces one) would double-post, which the server treats
		// as a no-op anyway.
		r.submitted[index] = true
		r.jobs[index] = j
	}
	r.mu.Unlock()
	if !claimed {
		// A 404 mid-loop means the coordinator restarted between opening
		// the sweep and this submission: re-resolve by nonce and re-post to
		// the current id. Bounded — each pass either succeeds, recovers, or
		// returns the terminal error.
		for pass := 0; ; pass++ {
			status, err := r.retry(ctx, func() (int, error) {
				return r.call(ctx, http.MethodPost, "/v1/sweeps/"+id+"/jobs",
					JobRequest{Index: index, Job: j}, nil)
			})
			if err == nil && status == http.StatusNotFound && pass < maxStreamRecoveries {
				newID, rerr := r.reresolve(ctx, id)
				if rerr == nil {
					id = newID
					continue
				}
				err = fmt.Errorf("%w (recovery failed: %v)", statusErr(status), rerr)
			}
			if err == nil && status != http.StatusOK {
				err = statusErr(status)
			}
			if err != nil {
				return "", fmt.Errorf("grid: submit job %d to sweep %s: %w", index, id, err)
			}
			break
		}
	}
	return id, nil
}

// Close stops the result stream and releases the sweep's state on the
// coordinator (idempotent; a sweep the server already dropped counts as
// released). The executor can be reused afterwards: the next Submit or
// Execute opens a fresh sweep with a fresh stream.
func (r *RemoteExecutor) Close() error {
	r.mu.Lock()
	id := r.sweepID
	cancel, end := r.streamCtx, r.streamEnd
	r.sweepID, r.submitted = "", nil
	r.nonce, r.jobs, r.received = "", nil, nil
	r.waiters, r.arrived = nil, nil
	r.streamCtx, r.streamEnd = nil, nil
	r.mu.Unlock()
	if cancel != nil {
		cancel()
		<-end
	}
	if id == "" {
		return nil
	}
	ctx, cancelReq := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelReq()
	status, err := r.call(ctx, http.MethodDelete, "/v1/sweeps/"+id, nil, nil)
	if err != nil {
		return fmt.Errorf("grid: close sweep %s: %w", id, err)
	}
	if status != http.StatusOK && status != http.StatusNotFound {
		return fmt.Errorf("grid: close sweep %s: unexpected status %d", id, status)
	}
	return nil
}

// Stats fetches the coordinator's accounting snapshot.
func (r *RemoteExecutor) Stats(ctx context.Context) (ServerSnapshot, error) {
	var snap ServerSnapshot
	status, err := r.call(ctx, http.MethodGet, "/v1/stats", nil, &snap)
	if err != nil {
		return snap, err
	}
	if status != http.StatusOK {
		return snap, fmt.Errorf("grid: stats: unexpected status %d", status)
	}
	return snap, nil
}

// remoteRetry is the executor's backoff schedule for transport faults and
// 5xx alike.
var remoteRetry = backoff{Base: 250 * time.Millisecond, Cap: 5 * time.Second}

// retry runs fn until it returns a status below 500 without a transport
// error, backing off between attempts, and hands the final status to the
// caller to interpret. Transport faults and 5xx are retried alike (both
// are the shape of a coordinator or fronting proxy mid-restart).
func (r *RemoteExecutor) retry(ctx context.Context, fn func() (int, error)) (int, error) {
	var status int
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 && !sleep(ctx, remoteRetry.pause(attempt-1)) {
			return 0, ctx.Err()
		}
		status, err = fn()
		if err == nil && status < 500 {
			return status, nil
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		pause := remoteRetry.pause(attempt)
		if err != nil {
			r.log().Warn("coordinator unreachable, backing off", "coordinator", r.URL, "err", err.Error(), "pause", pause.String())
		} else {
			r.log().Warn("coordinator error, backing off", "coordinator", r.URL, "status", status, "pause", pause.String())
		}
	}
	if err == nil {
		err = statusErr(status)
	}
	return status, err
}

// statusErr renders a terminal HTTP status as an error, spelling out the
// misconfiguration users actually hit.
func statusErr(status int) error {
	if status == http.StatusUnauthorized {
		return errUnauthorized
	}
	return fmt.Errorf("unexpected status %d", status)
}

// newNonce returns a random submission id for sweep-creation idempotency.
func newNonce() string {
	var b [16]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// doJSON sends one JSON request with optional bearer auth and worker
// identity header (each omitted when empty) and decodes a 200 response
// body into out (when non-nil). The returned error covers transport and
// decoding failures only; HTTP statuses are the caller's to interpret.
// Requests are stamped with a body checksum, and a 200 response carrying
// one is verified before decoding: a mismatch (a byte damaged in transit
// that might still parse as JSON) is returned as a transport-shaped error
// so retry loops fetch fresh bytes.
func doJSON(ctx context.Context, client *http.Client, method, url, token, worker string, in, out any) (int, error) {
	var body io.Reader
	var sum string
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
		sum = bodySum(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(sumHeader, sum)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if worker != "" {
		req.Header.Set(workerHeader, worker)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBody))
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode == http.StatusOK {
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
		if err != nil {
			return resp.StatusCode, err
		}
		if want := resp.Header.Get(sumHeader); want != "" && want != bodySum(b) {
			return resp.StatusCode, fmt.Errorf("response body checksum mismatch (damaged in transit)")
		}
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
