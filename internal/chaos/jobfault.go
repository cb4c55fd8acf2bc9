package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// JobFaults configures worker-level fault injection: faults that fire
// *inside* job execution rather than on the wire, exercising the worker's
// slot containment (recover, watchdog, memory guard) and the coordinator's
// poison-job quarantine. Unlike the transport injector, job faults are
// keyed on the job's content address, not a draw sequence: the same job
// draws the same fault on every worker and every run with the same seed.
// That is exactly the shape of a real poison job — it follows the job
// around the fleet — and it is what makes quarantine tests deterministic.
type JobFaults struct {
	// Seed perturbs the per-job fault assignment; different seeds poison
	// different jobs.
	Seed int64

	// Panic is the probability a job panics in the executor. The panic
	// message is deterministic (derived from the job name only), so a
	// quarantined row's error text is byte-stable across runs.
	Panic float64

	// Stall is the probability a job blocks for StallFor before running,
	// long enough to trip the slot watchdog or the lease TTL.
	Stall float64

	// StallFor is the injected stall length; zero means 2s.
	StallFor time.Duration

	// Alloc is the probability a job grabs AllocBytes of live heap and
	// holds it for AllocHold before running — tripping the worker's soft
	// memory guard when one is set.
	Alloc float64

	// AllocBytes sizes the injected allocation; zero means 256 MiB.
	AllocBytes int64

	// AllocHold is how long the allocation is kept reachable so a polling
	// memory guard can observe it; zero means 500ms.
	AllocHold time.Duration
}

// JobStats counts fired job faults and clean pass-throughs.
type JobStats struct {
	Panics, Stalls, Allocs, Passed uint64
}

// JobInjector assigns faults to jobs per a JobFaults config. Safe for
// concurrent use.
type JobInjector struct {
	cfg JobFaults

	panics, stalls, allocs, passed atomic.Uint64

	mu   sync.Mutex
	sink []byte // keeps injected allocations live until AllocHold elapses
}

// NewJobInjector returns an injector with defaults applied.
func NewJobInjector(cfg JobFaults) *JobInjector {
	if cfg.StallFor <= 0 {
		cfg.StallFor = 2 * time.Second
	}
	if cfg.AllocBytes <= 0 {
		cfg.AllocBytes = 256 << 20
	}
	if cfg.AllocHold <= 0 {
		cfg.AllocHold = 500 * time.Millisecond
	}
	return &JobInjector{cfg: cfg}
}

// JobStats returns a snapshot of fired-fault counters.
func (ji *JobInjector) JobStats() JobStats {
	return JobStats{
		Panics: ji.panics.Load(),
		Stalls: ji.stalls.Load(),
		Allocs: ji.allocs.Load(),
		Passed: ji.passed.Load(),
	}
}

// Fault classes, in the order Classify checks them.
const (
	JobFaultNone  = ""
	JobFaultPanic = "panic"
	JobFaultStall = "stall"
	JobFaultAlloc = "alloc"
)

// Classify returns the fault class this injector assigns to j — the same
// answer for the same (job, seed) on every call, every instance, every
// process. Tests use it to find which job in a matrix is the poison one.
func (ji *JobInjector) Classify(j sweep.Job) string {
	u := ji.roll(j)
	switch {
	case u < ji.cfg.Panic:
		return JobFaultPanic
	case u < ji.cfg.Panic+ji.cfg.Stall:
		return JobFaultStall
	case u < ji.cfg.Panic+ji.cfg.Stall+ji.cfg.Alloc:
		return JobFaultAlloc
	}
	return JobFaultNone
}

// roll maps the job's content address and the seed to a uniform [0,1):
// FNV-64a over the hash hex, xored with a golden-ratio-spread seed, then a
// splitmix64 finalizer to decorrelate the low-entropy xor.
func (ji *JobInjector) roll(j sweep.Job) float64 {
	h := fnv.New64a()
	h.Write([]byte(j.Hash()))
	x := h.Sum64() ^ (uint64(ji.cfg.Seed) * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// jobFaultExecutor wraps an inner executor with per-job fault injection.
type jobFaultExecutor struct {
	ji    *JobInjector
	inner sweep.Executor
}

// WrapExecutor returns an executor that fires the injector's assigned
// fault for each job before delegating to inner. A panic fault panics with
// a deterministic message (the worker's slot containment turns it into an
// incident); stall and alloc faults delay or balloon the heap, then run
// the job normally — only external policy (watchdog, memory guard, lease
// expiry) turns those into failures.
func (ji *JobInjector) WrapExecutor(inner sweep.Executor) sweep.Executor {
	return &jobFaultExecutor{ji: ji, inner: inner}
}

func (e *jobFaultExecutor) Execute(ctx context.Context, index int, j sweep.Job) (*core.Results, error) {
	e.inject(ctx, j)
	return e.inner.Execute(ctx, index, j)
}

// ExecuteTimed forwards to the inner executor's timed path when it has
// one, so timing attribution survives the wrapper.
func (e *jobFaultExecutor) ExecuteTimed(ctx context.Context, index int, j sweep.Job) (*core.Results, *sweep.Timing, error) {
	e.inject(ctx, j)
	if timed, ok := e.inner.(sweep.TimedExecutor); ok {
		return timed.ExecuteTimed(ctx, index, j)
	}
	res, err := e.inner.Execute(ctx, index, j)
	return res, nil, err
}

func (e *jobFaultExecutor) inject(ctx context.Context, j sweep.Job) {
	switch e.ji.Classify(j) {
	case JobFaultPanic:
		e.ji.panics.Add(1)
		panic(fmt.Sprintf("chaos: injected poison panic for job %s", j.String()))
	case JobFaultStall:
		e.ji.stalls.Add(1)
		t := time.NewTimer(e.ji.cfg.StallFor)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	case JobFaultAlloc:
		e.ji.allocs.Add(1)
		buf := make([]byte, e.ji.cfg.AllocBytes)
		// Touch a byte per page so the pages are really committed.
		for i := int64(0); i < e.ji.cfg.AllocBytes; i += 4096 {
			buf[i] = 1
		}
		e.ji.mu.Lock()
		e.ji.sink = buf
		e.ji.mu.Unlock()
		t := time.NewTimer(e.ji.cfg.AllocHold)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		e.ji.mu.Lock()
		e.ji.sink = nil
		e.ji.mu.Unlock()
	default:
		e.ji.passed.Add(1)
	}
}
