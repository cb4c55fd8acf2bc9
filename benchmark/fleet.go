package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"safespec/internal/core"
	"safespec/internal/grid"
	"safespec/internal/resultcache"
	"safespec/internal/sweep"
)

// fleetBenches and fleetSeeds shape the fleet-replay matrix: the Quick
// kernels except mcf × 3 modes × a 34-seed fan is 510 cells per pass at
// the Quick budget. mcf is left out because its pointer-chase kernel costs
// ~160 ms and ~18 MB to generate per seed: a fan of it put 4.5 s and
// 500 MB into set-up, for cells the passes only ever read from the cache.
var fleetBenches = []string{"perlbench", "lbm", "exchange2", "gcc", "pop2"}

const fleetSeeds = 34

// workerPoll replaces the worker's 250 ms default idle sleep: with the
// default, every ~0.3 s pass would start after a random 0-250 ms wait for
// the next lease poll.
const workerPoll = 2 * time.Millisecond

// fleetReplay drives the distributed path in one process over loopback
// HTTP: a grid.Server journaling into a fresh state directory, one
// grid.Worker with two lease loops executing through a result cache filled
// during set-up, and a grid.RemoteExecutor client that submits each pass's
// whole matrix in one POST. Every cell is a worker-side cache hit, so the
// passes measure lease/report wire, result streaming and journal appends;
// the simulator does no work. Every pass must reproduce the rows of the
// local fill byte for byte.
type fleetReplay struct {
	seed int64
	tr   *tracer

	jobs  []sweep.Job
	ref   []byte
	dir   string
	cache *resultcache.Cache

	server     *grid.Server
	httpSrv    *http.Server
	served     chan error
	stopWorker context.CancelFunc
	workerDone chan error
	remote     *grid.RemoteExecutor

	// armed switches the counting wrappers on for traced passes only.
	armed                    atomic.Bool
	workerWire, clientWire   *countingTransport
	execNS                   atomic.Int64
	fillSpans                []simSpan
	fillAllocs               uint64
	fillCycles, fillCommited uint64
	wfc, wfb                 float64
	putUS                    []float64

	getUS, reportMS, submitMS []float64
	requests, wire, journal   int64
	cells                     int
	execWindowNS              int64
	granted, completed        uint64
	hits, misses              uint64
}

func (f *fleetReplay) setup(ctx context.Context) error {
	spec := sweep.Quick()
	spec.Benchmarks = fleetBenches
	spec.Seeds = make([]int64, fleetSeeds)
	for i := range spec.Seeds {
		spec.Seeds[i] = f.seed*fleetSeeds + int64(i) + 1
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	f.jobs = jobs
	if err := genKernels(jobs, f.tr); err != nil {
		return err
	}
	if f.dir, err = workDir(); err != nil {
		return err
	}
	if f.cache, err = resultcache.Open(filepath.Join(f.dir, "cache")); err != nil {
		return err
	}
	if err := f.fill(ctx); err != nil {
		return err
	}

	f.server = grid.NewServer(grid.ServerOptions{})
	if err := f.server.OpenState(filepath.Join(f.dir, "state")); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	url := "http://" + ln.Addr().String()
	f.httpSrv = &http.Server{Handler: f.server.Handler()}
	f.served = make(chan error, 1)
	go func() { f.served <- f.httpSrv.Serve(ln) }()

	var workerRT, clientRT http.RoundTripper
	workerRT, f.workerWire = f.transport()
	clientRT, f.clientWire = f.transport()
	var exec interface {
		sweep.Executor
		sweep.TimedExecutor
	} = resultcache.NewExecutor(f.cache, nil)
	if f.tr.on {
		exec = &timedExec{inner: exec, armed: &f.armed, busyNS: &f.execNS}
	}
	w := &grid.Worker{
		Coordinator: url,
		ID:          "benchmark",
		Parallel:    workers,
		Exec:        exec,
		Poll:        workerPoll,
		Client:      &http.Client{Transport: workerRT, Timeout: 30 * time.Second},
	}
	wctx, stop := context.WithCancel(context.Background())
	f.stopWorker = stop
	f.workerDone = make(chan error, 1)
	go func() { f.workerDone <- w.Run(wctx) }()
	f.remote = &grid.RemoteExecutor{URL: url, Client: &http.Client{Transport: clientRT, Timeout: 90 * time.Second}}

	// The worker must be polling before the first pass, or that pass pays
	// for its start-up.
	deadline := time.Now().Add(10 * time.Second)
	for !w.Ready() {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet-replay: worker not polling after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// transport builds one client's HTTP transport, wrapped in a request and
// byte counter in a traced run.
func (f *fleetReplay) transport() (http.RoundTripper, *countingTransport) {
	base := &http.Transport{MaxIdleConnsPerHost: 2 * workers}
	if !f.tr.on {
		return base, nil
	}
	ct := &countingTransport{base: base, armed: &f.armed}
	return ct, ct
}

// fill simulates the matrix once through the result cache; its JSONL rows
// are the reference every replayed pass must reproduce.
func (f *fleetReplay) fill(ctx context.Context) error {
	var inner sweep.Executor = sweep.LocalExecutor{}
	var traced *simExec
	if f.tr.on {
		traced = newSimExec()
		inner = traced
	}
	var buf bytes.Buffer
	before := readRuntime()
	results, err := sweep.Run(ctx, f.jobs, sweep.Options{Workers: workers,
		Executor: resultcache.NewExecutor(f.cache, inner), Sinks: []sweep.Sink{sweep.NewJSONL(&buf)}})
	after := readRuntime()
	if err != nil {
		return fmt.Errorf("fleet-replay fill: %w", err)
	}
	f.ref = buf.Bytes()
	f.fillCycles, f.fillCommited = simTotals(results)
	f.wfc, f.wfb = normIPC(results)
	for _, r := range results {
		if r.Timing != nil {
			f.putUS = append(f.putUS, float64(r.Timing.CacheNS)/1e3)
		}
	}
	if traced != nil {
		f.fillSpans = traced.take()
		f.fillAllocs = after.allocObjs - before.allocObjs
	}
	return nil
}

func (f *fleetReplay) pass(ctx context.Context, traced bool) (passStats, error) {
	var exec sweep.Executor = f.remote
	ts := &timedSubmit{RemoteExecutor: f.remote}
	var srvBefore grid.ServerSnapshot
	var journalBefore int64
	if traced {
		exec = ts
		srvBefore = f.server.Stats()
		journalBefore = f.journalBytes()
		f.workerWire.requests.Store(0)
		f.workerWire.bytes.Store(0)
		f.clientWire.requests.Store(0)
		f.clientWire.bytes.Store(0)
		f.execNS.Store(0)
		f.armed.Store(true)
	}
	cacheBefore := f.cache.Stats()
	var buf bytes.Buffer
	before := readRuntime()
	start := time.Now()
	results, err := sweep.Run(ctx, f.jobs, sweep.Options{Workers: workers, Executor: exec,
		Sinks: []sweep.Sink{sweep.NewJSONL(&buf)}})
	err = errors.Join(err, f.remote.Close())
	wall := time.Since(start)
	after := readRuntime()
	f.armed.Store(false)
	if err != nil {
		return passStats{}, err
	}
	ps := passStats{cells: len(results), wall: wall, failed: rowMismatches(buf.Bytes(), f.ref)}
	cacheAfter := f.cache.Stats()
	hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	if misses != 0 || hits < uint64(len(results)) {
		f.tr.fail("fleet-replay: %d cache hits and %d misses for %d cells; every cell must hit", hits, misses, len(results))
	}
	if !traced {
		return ps, nil
	}
	srvAfter := f.server.Stats()
	var cellWall time.Duration
	for _, r := range results {
		cellWall += r.Wall
		if r.Timing != nil {
			f.getUS = append(f.getUS, float64(r.Timing.CacheNS)/1e3)
			f.reportMS = append(f.reportMS, float64(r.Timing.ReportNS)/1e6)
		}
	}
	f.tr.passBusy(cellWall, wall)
	f.tr.passRuntime(before, after)
	f.submitMS = append(f.submitMS, float64(ts.took)/1e6)
	f.requests += f.workerWire.requests.Load() + f.clientWire.requests.Load()
	f.wire += f.workerWire.bytes.Load() + f.clientWire.bytes.Load()
	f.journal += f.journalBytes() - journalBefore
	f.cells += len(results)
	f.execWindowNS += workers * int64(wall)
	f.granted += srvAfter.Granted - srvBefore.Granted
	f.completed += srvAfter.Completed - srvBefore.Completed
	f.hits += hits
	f.misses += misses
	return ps, nil
}

// journalBytes is the size of the coordinator's append-only journal.
func (f *fleetReplay) journalBytes() int64 {
	fi, err := os.Stat(filepath.Join(f.dir, "state", "journal.wal"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// entryBytes is the mean size of a result-cache entry on disk.
func (f *fleetReplay) entryBytes() float64 {
	var n, total int64
	filepath.WalkDir(f.cache.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			n++
			total += fi.Size()
		}
		return nil
	})
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func (f *fleetReplay) addLayers(m *layers) {
	simLayers(m, f.fillSpans, f.fillAllocs)
	m.set("pipeline.sim_cycles", float64(f.fillCycles))
	m.set("pipeline.committed", float64(f.fillCommited))
	m.set("model.wfc_norm_ipc", f.wfc)
	m.set("model.wfb_norm_ipc", f.wfb)
	m.set("resultcache.get_us_p50", quantile(f.getUS, 0.5))
	m.set("resultcache.get_us_p90", quantile(f.getUS, 0.9))
	m.set("resultcache.put_us_p50", quantile(f.putUS, 0.5))
	if f.hits+f.misses > 0 {
		m.set("resultcache.hit_ratio", float64(f.hits)/float64(f.hits+f.misses))
	}
	m.set("resultcache.entry_bytes", f.entryBytes())
	if f.cells == 0 {
		return
	}
	cells := float64(f.cells)
	m.set("grid.submit_ms", median(f.submitMS))
	m.set("grid.report_ms_p50", quantile(f.reportMS, 0.5))
	m.set("grid.requests_per_cell", float64(f.requests)/cells)
	m.set("grid.wire_kb_per_cell", float64(f.wire)/1024/cells)
	m.set("grid.journal_kb_per_cell", float64(f.journal)/1024/cells)
	m.set("grid.worker_exec_frac", float64(f.execNS.Load())/float64(f.execWindowNS))
	if f.granted > 0 {
		m.set("grid.useful_lease_ratio", float64(f.completed)/float64(f.granted))
	}
}

func (f *fleetReplay) close() error {
	var errs []error
	if f.remote != nil {
		errs = append(errs, f.remote.Close())
	}
	if f.stopWorker != nil {
		f.stopWorker()
		errs = append(errs, <-f.workerDone)
	}
	if f.httpSrv != nil {
		errs = append(errs, f.httpSrv.Close())
		if err := <-f.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if f.server != nil {
		errs = append(errs, f.server.CloseState())
	}
	if f.dir != "" {
		errs = append(errs, os.RemoveAll(f.dir))
	}
	return errors.Join(errs...)
}

// timedExec wraps the worker's executor to sum the time its lease loops
// spend executing jobs while armed.
type timedExec struct {
	inner  sweep.TimedExecutor
	armed  *atomic.Bool
	busyNS *atomic.Int64
}

func (t *timedExec) Execute(ctx context.Context, index int, j sweep.Job) (*core.Results, error) {
	res, _, err := t.ExecuteTimed(ctx, index, j)
	return res, err
}

func (t *timedExec) ExecuteTimed(ctx context.Context, index int, j sweep.Job) (*core.Results, *sweep.Timing, error) {
	start := time.Now()
	res, tm, err := t.inner.ExecuteTimed(ctx, index, j)
	if t.armed.Load() {
		t.busyNS.Add(int64(time.Since(start)))
	}
	return res, tm, err
}

// timedSubmit times the one POST that enqueues a pass's matrix.
type timedSubmit struct {
	*grid.RemoteExecutor
	took time.Duration
}

func (t *timedSubmit) Submit(ctx context.Context, jobs []sweep.Job) error {
	start := time.Now()
	err := t.RemoteExecutor.Submit(ctx, jobs)
	t.took = time.Since(start)
	return err
}
