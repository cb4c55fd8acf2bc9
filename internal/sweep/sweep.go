// Package sweep is the experiment runner behind the paper's evaluation: it
// expands a benchmark × mode × seed matrix into jobs, executes them on a
// bounded worker pool with cancellation and per-job panic isolation, and
// delivers results to pluggable sinks in deterministic job order regardless
// of scheduling. internal/figures, the repository benchmarks and the
// cmd/safespec-* binaries are all thin consumers of this package.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"safespec/internal/core"
)

// Result is one finished (or failed) job.
type Result struct {
	// Index is the job's position in the input slice; the results slice and
	// every sink observe results in ascending Index order.
	Index int
	// Job echoes the input cell.
	Job Job
	// Res holds the simulator statistics (nil when Err is set).
	Res *core.Results
	// Err records a build failure, a recovered panic, or the context error
	// for jobs that were never started.
	Err error
	// Wall is the job's wall-clock execution time on its worker.
	Wall time.Duration
	// Timing is the optional span breakdown of Wall (nil when the executor
	// cannot attribute time, or the result came from a peer that predates
	// timing). It is diagnostic only and never reaches sink rows.
	Timing *Timing
}

// Committed returns the job's retired-instruction count (0 on error).
func (r Result) Committed() uint64 {
	if r.Res == nil {
		return 0
	}
	return r.Res.Committed
}

// Options configures a sweep run.
type Options struct {
	// Workers bounds the worker pool (<=0 selects GOMAXPROCS).
	Workers int
	// Timeout bounds the whole sweep (0 = no bound). Jobs not started when
	// it expires are reported with Err set to the context error.
	Timeout time.Duration
	// Sinks observe results in job order as they become deliverable; every
	// sink is flushed before Run returns.
	Sinks []Sink
	// Executor runs individual jobs (nil selects LocalExecutor). Wrapping it
	// swaps in the result cache or the distributed grid without touching any
	// consumer of Run.
	Executor Executor
}

// ForEach runs fn(ctx, i) for i in [0, n) on at most workers goroutines
// (<=0 selects GOMAXPROCS). A panicking fn is recovered and reported as an
// error for that index without disturbing the others. Once ctx is cancelled
// no new indices are started; already-running calls finish. The returned
// error joins the context error (if cancelled) with every fn error, each
// wrapped with its index.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	errs := make([]error, n)
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= n || ctx.Err() != nil {
					return
				}
				errs[i] = protect(ctx, i, fn)
			}
		}()
	}
	wg.Wait()

	all := make([]error, 0, n+1)
	if err := ctx.Err(); err != nil {
		all = append(all, err)
	}
	for i, err := range errs {
		if err != nil {
			all = append(all, fmt.Errorf("job %d: %w", i, err))
		}
	}
	return errors.Join(all...)
}

// protect invokes fn for one index, converting a panic into an error.
func protect(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(ctx, i)
}

// Run executes jobs on a bounded worker pool and returns one Result per job,
// in job order. Per-job failures (panics, unknown benchmarks) are isolated
// into their Result and do not abort the sweep; the returned error is
// non-nil only when the context was cancelled or the Timeout expired, or a
// sink failed. Results are identical for any worker count: jobs share no
// mutable state and sinks observe results in ascending job order.
func Run(ctx context.Context, jobs []Job, opts Options) ([]Result, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	results := make([]Result, len(jobs))
	for i := range results {
		results[i] = Result{Index: i, Job: jobs[i]}
	}
	ran := make([]bool, len(jobs))

	exec := opts.Executor
	if exec == nil {
		exec = LocalExecutor{}
	}
	if sub, ok := exec.(Submitter); ok {
		// Announce the matrix before the pool starts so a remote backend can
		// enqueue the whole sweep in one request. A failed announcement fails
		// the sweep outright, like any configuration error.
		if err := sub.Submit(ctx, jobs); err != nil {
			return results, fmt.Errorf("sweep: submit matrix: %w", err)
		}
	}

	// The collector delivers finished results to the sinks in ascending job
	// order, buffering out-of-order completions, so sink output is
	// byte-identical for any worker count.
	done := make(chan int, len(jobs))
	var sinkErr error
	observe := func(r Result) {
		for _, s := range opts.Sinks {
			if err := s.Observe(r); err != nil && sinkErr == nil {
				sinkErr = err
			}
		}
	}
	delivered := 0
	var collector sync.WaitGroup
	if len(opts.Sinks) > 0 {
		collector.Add(1)
		go func() {
			defer collector.Done()
			pending := make(map[int]bool, len(jobs))
			for i := range done {
				pending[i] = true
				for pending[delivered] {
					delete(pending, delivered)
					observe(results[delivered])
					delivered++
				}
			}
		}()
	}

	timed, _ := exec.(TimedExecutor)
	poolStart := time.Now()
	ctxErr := ForEach(ctx, len(jobs), opts.Workers, func(ctx context.Context, i int) error {
		ran[i] = true
		start := time.Now()
		if timed != nil {
			results[i].Res, results[i].Timing, results[i].Err = timed.ExecuteTimed(ctx, i, jobs[i])
		} else {
			results[i].Res, results[i].Err = exec.Execute(ctx, i, jobs[i])
		}
		results[i].Wall = time.Since(start)
		if t := results[i].Timing; t != nil && t.QueueNS == 0 {
			// The whole matrix is runnable at pool start; a job's queue wait
			// is how long it sat before a pool worker picked it up. Executors
			// with their own queue (the grid) stamp QueueNS themselves.
			t.QueueNS = int64(start.Sub(poolStart))
		}
		done <- i
		return nil
	})
	// ForEach isolates every job error into results[i].Err (the executors
	// never return through fn's error), so ctxErr can only carry
	// cancellation.
	close(done)
	collector.Wait()

	if ctxErr != nil {
		for i := range results {
			if !ran[i] {
				results[i].Err = context.Cause(ctx)
			}
		}
	}
	if len(opts.Sinks) > 0 {
		// A job skipped by cancellation never arrives on done, stalling the
		// collector's in-order cursor; deliver the remainder here, still in
		// ascending job order.
		for ; delivered < len(results); delivered++ {
			observe(results[delivered])
		}
	}
	for _, s := range opts.Sinks {
		if err := s.Flush(); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	return results, errors.Join(ctxErr, sinkErr)
}

// executeJob dispatches one job on a worker. It is a package variable so
// tests can substitute a controllable implementation (e.g. one that blocks
// selected indices until cancellation, pinning the cancellation point);
// production always runs execute.
var executeJob = func(_ context.Context, _ int, j Job) (*core.Results, error) {
	return execute(j)
}

// execute builds and runs one job, recovering panics into an error.
func execute(j Job) (res *core.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("sweep: %s panicked: %v", j, r)
		}
	}()
	prog, err := j.Program()
	if err != nil {
		return nil, err
	}
	sim := core.Acquire(j.Config, prog)
	// Detach before releasing: the raw results alias the simulator's
	// accumulator, which the next job would overwrite. A simulator that
	// panicked mid-run is deliberately NOT released (its state is suspect).
	res = sim.Run().Detach()
	sim.Release()
	return res, nil
}

// FirstErr returns the first per-job error in job order, or nil.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("sweep: %s: %w", r.Job, r.Err)
		}
	}
	return nil
}
