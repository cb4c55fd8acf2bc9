package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A workload reports 0 for a layer it does not exercise.
var layerUnits = map[string]string{
	"sweep.busy_frac":            "ratio",
	"workloads.program_ms_total": "ms",
	"core.setup_ms_p50":          "ms",
	"core.setup_ms_p90":          "ms",
	"core.setup_share":           "ratio",
	"pipeline.ns_per_cycle_p50":  "ns/cycle",
	"pipeline.allocs_per_cycle":  "allocs/cycle",
	"pipeline.sim_cycles":        "cycles",
	"pipeline.committed":         "instrs",
	"model.wfc_norm_ipc":         "ratio",
	"model.wfb_norm_ipc":         "ratio",
	"resultcache.get_us_p50":     "us",
	"resultcache.get_us_p90":     "us",
	"resultcache.put_us_p50":     "us",
	"resultcache.hit_ratio":      "ratio",
	"resultcache.entry_bytes":    "B",
	"grid.submit_ms":             "ms",
	"grid.report_ms_p50":         "ms",
	"grid.requests_per_cell":     "count",
	"grid.wire_kb_per_cell":      "KB",
	"grid.journal_kb_per_cell":   "KB",
	"grid.worker_exec_frac":      "ratio",
	"grid.useful_lease_ratio":    "ratio",
	"attacks.cell_ms_p50":        "ms",
	"attacks.cell_ms_p90":        "ms",
	"attacks.build_ms_p50":       "ms",
	"attacks.new_ms_p50":         "ms",
	"attacks.run_ms_p50":         "ms",
	"attacks.alloc_kb_per_cell":  "KB",
	"attacks.verdict_mismatches": "count",
	"runtime.gc_cpu_frac":        "ratio",
	"trace.overhead_frac":        "ratio",
}

// layers accumulates a traced run's per-layer metrics.
type layers struct {
	tr   *tracer
	vals map[string]float64
}

func (l *layers) set(name string, v float64) {
	if _, ok := layerUnits[name]; !ok {
		panic("unknown per-layer metric " + name)
	}
	if l.vals == nil {
		l.vals = make(map[string]float64)
	}
	l.vals[name] = v
}

// metrics renders every per-layer metric, including the shared ones the
// tracer gathered.
func (l *layers) metrics() map[string]metric {
	l.set("workloads.program_ms_total", float64(l.tr.programNS)/1e6)
	l.set("sweep.busy_frac", median(l.tr.busy))
	if l.tr.cpuTotal > 0 {
		l.set("runtime.gc_cpu_frac", l.tr.cpuGC/l.tr.cpuTotal)
	}
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{Value: l.vals[name], Unit: unit}
	}
	return out
}

// tracer holds what a run records across layers. Spans stay in memory and
// are summarized when the run ends.
type tracer struct {
	on bool
	// programNS is time spent generating kernels (always measured: it is
	// set-up, never inside a timed pass).
	programNS int64
	// busy is sweep.busy_frac per traced pass.
	busy []float64
	// cpuGC and cpuTotal sum the runtime's CPU-class estimates over traced
	// passes.
	cpuGC, cpuTotal float64
	// selfCheck collects determinism violations; any makes the run incorrect.
	selfCheck []string
}

func newTracer(on bool) *tracer { return &tracer{on: on} }

func (t *tracer) fail(format string, args ...any) {
	t.selfCheck = append(t.selfCheck, fmt.Sprintf(format, args...))
}

// passBusy records Σ cell wall ÷ (workers × pass wall) for one traced pass.
func (t *tracer) passBusy(cellWall, passWall time.Duration) {
	t.busy = append(t.busy, cellWall.Seconds()/(workers*passWall.Seconds()))
}

// rtSample is a runtime/metrics reading.
type rtSample struct {
	allocObjs, allocBytes uint64
	cpuGC, cpuTotal       float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		cpuGC:      s[2].Value.Float64(),
		cpuTotal:   s[3].Value.Float64(),
	}
}

// passRuntime folds one traced pass's runtime deltas into the tracer.
func (t *tracer) passRuntime(before, after rtSample) {
	t.cpuGC += after.cpuGC - before.cpuGC
	t.cpuTotal += after.cpuTotal - before.cpuTotal
}

// simSpan is one simulated cell as seen from outside the simulator.
type simSpan struct {
	setupNS, runNS    int64
	cycles, committed uint64
}

// simExec is the traced stand-in for sweep.LocalExecutor: it runs each job
// through the public simulator calls (Job.Program, core.New or
// Simulator.Reset, Run, Detach) with one simulator per sweep worker, and
// records a span per cell while record is set. record changes only between
// sweeps, never while one runs.
type simExec struct {
	free   chan *core.Simulator
	record bool

	mu    sync.Mutex
	spans []simSpan
}

func newSimExec() *simExec {
	return &simExec{free: make(chan *core.Simulator, workers), record: true}
}

func (e *simExec) Execute(_ context.Context, _ int, j sweep.Job) (res *core.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s panicked: %v", j, r)
		}
	}()
	prog, err := j.Program()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var sim *core.Simulator
	select {
	case sim = <-e.free:
		sim.Reset(j.Config, prog)
	default:
		sim = core.New(j.Config, prog)
	}
	t1 := time.Now()
	res = sim.Run().Detach()
	t2 := time.Now()
	select {
	case e.free <- sim:
	default:
	}
	if !e.record {
		return res, nil
	}
	e.mu.Lock()
	e.spans = append(e.spans, simSpan{setupNS: int64(t1.Sub(t0)), runNS: int64(t2.Sub(t1)),
		cycles: res.Cycles, committed: res.Committed})
	e.mu.Unlock()
	return res, nil
}

// take returns and clears the recorded spans.
func (e *simExec) take() []simSpan {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.spans
	e.spans = nil
	return s
}

// simLayers reports the core and pipeline layers from simulated-cell spans.
// allocs is the heap allocation count over the section the spans cover.
func simLayers(m *layers, spans []simSpan, allocs uint64) {
	if len(spans) == 0 {
		return
	}
	var setupMS, nsPerCycle []float64
	var setupNS, runNS int64
	var cycles, committed uint64
	for _, s := range spans {
		setupMS = append(setupMS, float64(s.setupNS)/1e6)
		if s.cycles > 0 {
			nsPerCycle = append(nsPerCycle, float64(s.runNS)/float64(s.cycles))
		}
		setupNS += s.setupNS
		runNS += s.runNS
		cycles += s.cycles
		committed += s.committed
	}
	m.set("core.setup_ms_p50", quantile(setupMS, 0.5))
	m.set("core.setup_ms_p90", quantile(setupMS, 0.9))
	m.set("core.setup_share", float64(setupNS)/float64(setupNS+runNS))
	m.set("pipeline.ns_per_cycle_p50", quantile(nsPerCycle, 0.5))
	m.set("pipeline.sim_cycles", float64(cycles))
	m.set("pipeline.committed", float64(committed))
	if cycles > 0 {
		m.set("pipeline.allocs_per_cycle", float64(allocs)/float64(cycles))
	}
}

// normIPC returns the geometric means, over (bench, seed) pairs, of WFC and
// WFB IPC normalized to the baseline IPC of the same pair — the headline
// numbers of the paper's Figure 11.
func normIPC(results []sweep.Result) (wfc, wfb float64) {
	type key struct {
		bench string
		seed  int64
	}
	base := make(map[key]float64)
	for _, r := range results {
		if r.Err == nil && r.Job.Mode == "baseline" {
			base[key{r.Job.Bench, r.Job.Seed}] = r.Res.IPC()
		}
	}
	var lw, lb float64
	var nw, nb int
	for _, r := range results {
		b := base[key{r.Job.Bench, r.Job.Seed}]
		if r.Err != nil || b == 0 {
			continue
		}
		switch r.Job.Mode {
		case "wfc":
			lw += math.Log(r.Res.IPC() / b)
			nw++
		case "wfb":
			lb += math.Log(r.Res.IPC() / b)
			nb++
		}
	}
	if nw > 0 {
		wfc = math.Exp(lw / float64(nw))
	}
	if nb > 0 {
		wfb = math.Exp(lb / float64(nb))
	}
	return wfc, wfb
}

// simTotals sums the simulated work of a pass, the quantity the
// determinism self-check compares across passes.
func simTotals(results []sweep.Result) (cycles, committed uint64) {
	for _, r := range results {
		if r.Res != nil {
			cycles += r.Res.Cycles
			committed += r.Res.Committed
		}
	}
	return cycles, committed
}

// countingTransport counts requests and body bytes in both directions
// while armed.
type countingTransport struct {
	base  http.RoundTripper
	armed *atomic.Bool

	requests, bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.armed.Load() {
		return t.base.RoundTrip(req)
	}
	t.requests.Add(1)
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
