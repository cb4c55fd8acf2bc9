package main

import (
	"bytes"
	"context"
	"time"

	"safespec/internal/sweep"
)

// evalFull is the figure-regeneration sweep: sweep.Full()'s 22 kernels ×
// {baseline, wfc, wfb} at 50k instructions with occupancy sampling, run by
// the in-process sweep engine. The workload seed is the kernels' generator
// seed (0 reproduces the published figures). Every pass must reproduce the
// warm-up pass's JSONL rows byte for byte.
type evalFull struct {
	seed int64
	tr   *tracer

	jobs []sweep.Job
	exec *simExec

	ref                     []byte
	refCycles, refCommitted uint64
	wfc, wfb                float64

	spans  []simSpan
	allocs uint64
}

func (e *evalFull) setup(context.Context) error {
	spec := sweep.Full()
	spec.Seeds = []int64{e.seed}
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	e.jobs = jobs
	e.exec = newSimExec()
	return genKernels(jobs, e.tr)
}

func (e *evalFull) pass(ctx context.Context, traced bool) (passStats, error) {
	var buf bytes.Buffer
	opts := sweep.Options{Workers: workers, Sinks: []sweep.Sink{sweep.NewJSONL(&buf)}}
	// A traced run sends every pass through simExec and records spans only
	// on the traced ones, so trace.overhead_frac compares recording against
	// not recording on one executor. The untraced run keeps the sweep's own
	// LocalExecutor, which end-to-end numbers measure.
	if e.tr.on {
		opts.Executor = e.exec
		e.exec.record = traced
	}
	before := readRuntime()
	start := time.Now()
	results, err := sweep.Run(ctx, e.jobs, opts)
	wall := time.Since(start)
	after := readRuntime()
	if err != nil {
		return passStats{}, err
	}
	ps := passStats{cells: len(results), wall: wall}
	cycles, committed := simTotals(results)
	if e.ref == nil {
		e.ref = buf.Bytes()
		e.refCycles, e.refCommitted = cycles, committed
		e.wfc, e.wfb = normIPC(results)
	} else if cycles != e.refCycles || committed != e.refCommitted {
		e.tr.fail("eval-full: pass simulated %d cycles / %d instrs, warm-up %d / %d",
			cycles, committed, e.refCycles, e.refCommitted)
	}
	ps.failed = rowMismatches(buf.Bytes(), e.ref)
	if traced {
		var cellWall time.Duration
		for _, r := range results {
			cellWall += r.Wall
		}
		e.tr.passBusy(cellWall, wall)
		e.tr.passRuntime(before, after)
		e.spans = append(e.spans, e.exec.take()...)
		e.allocs += after.allocObjs - before.allocObjs
	}
	return ps, nil
}

func (e *evalFull) addLayers(m *layers) {
	simLayers(m, e.spans, e.allocs)
	m.set("pipeline.sim_cycles", float64(e.refCycles))
	m.set("pipeline.committed", float64(e.refCommitted))
	m.set("model.wfc_norm_ipc", e.wfc)
	m.set("model.wfb_norm_ipc", e.wfb)
}

func (e *evalFull) close() error { return nil }
