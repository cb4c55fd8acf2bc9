// Package perf is the reproducible performance harness of the simulator:
// it runs a pinned workload matrix through the sweep engine, measures
// simulation throughput (cells/sec, simulated cycles/sec, host-ns per
// simulated cycle) and allocation pressure (allocations and bytes per
// simulated cycle), and renders the measurement as a versioned
// BENCH_<label>.json report. Committing those reports gives the repository
// a performance trajectory, and Compare turns any two of them into a CI
// regression gate.
//
// Methodology: every repeat runs the full matrix through sweep.Run with the
// in-process LocalExecutor (the cache and grid layers are deliberately
// excluded — this measures the simulator, not the distribution machinery).
// The headline numbers come from the best repeat by cells/sec: the maximum
// over repeats is the standard estimator for "how fast can this code go",
// damping scheduler and GC noise that only ever slows a run down. All
// repeats are recorded in the report for anyone who wants a spread.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"safespec/internal/sweep"
	"safespec/internal/workloads"
)

// Schema identifies the report format. Bump it when fields change meaning
// so trajectory tooling never silently misreads an old report. v2 adds
// per-benchmark rows (bench_rows) measured in a dedicated serial-by-bench
// pass; Load reads v2 only.
const Schema = "safespec/perf/v2"

// Options configures a measurement.
type Options struct {
	// Label names the report (BENCH_<label>.json); "local" if empty.
	Label string
	// Spec is the workload matrix to run. The zero value selects the
	// pinned Quick preset, the matrix CI measures.
	Spec sweep.MatrixSpec
	// Preset names the matrix in the report ("quick", "custom", ...).
	Preset string
	// Repeats is how many times the matrix runs (headline = best repeat);
	// 3 if zero. The first repeat warms the program/simulator caches, so
	// single-repeat reports understate steady-state throughput.
	Repeats int
	// Workers bounds the sweep pool (<=0 selects GOMAXPROCS).
	Workers int
}

// Repeat is one timed run of the matrix.
type Repeat struct {
	// WallNS is the wall-clock time of the whole matrix.
	WallNS int64 `json:"wall_ns"`
	// SimInstrs / SimCycles total the committed instructions and simulated
	// cycles over all cells.
	SimInstrs uint64 `json:"sim_instrs"`
	SimCycles uint64 `json:"sim_cycles"`
	// Allocs / AllocBytes are the heap allocations (count and bytes)
	// performed by the whole process during the repeat.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// CellsPerSec returns the cell throughput of the repeat.
func (r Repeat) CellsPerSec(cells int) float64 {
	if r.WallNS <= 0 {
		return 0
	}
	return float64(cells) / (float64(r.WallNS) / 1e9)
}

// BenchRow is one benchmark's share of the matrix, measured in its own
// timed pass: the matrix's cells for that benchmark (all modes × seeds) run
// together, serially with respect to the other benchmarks, so wall time and
// the process-wide allocation delta are attributable to the benchmark.
// Within-row parallelism is bounded by the row's cell count, so row
// throughput is not comparable to the full-matrix headline — rows compare
// against the same row in another report.
type BenchRow struct {
	Bench     string `json:"bench"`
	Cells     int    `json:"cells"`
	WallNS    int64  `json:"wall_ns"`
	SimCycles uint64 `json:"sim_cycles"`

	CellsPerSec    float64 `json:"cells_per_sec"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// Report is one BENCH_<label>.json document.
type Report struct {
	Schema     string `json:"schema"`
	Label      string `json:"label"`
	CreatedAt  string `json:"created_at"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Preset, Cells, Instructions, Benchmarks and Seeds pin the measured
	// matrix; Compare refuses to gate reports whose matrices differ (equal
	// cell counts alone do not make equal work).
	Preset       string   `json:"preset"`
	Cells        int      `json:"cells"`
	Instructions uint64   `json:"instructions"`
	Benchmarks   []string `json:"benchmarks"`
	Seeds        []int64  `json:"seeds,omitempty"`
	Workers      int      `json:"workers"`

	// Headline metrics, from the best repeat by cells/sec.
	CellsPerSec    float64 `json:"cells_per_sec"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	InstrsPerSec   float64 `json:"instrs_per_sec"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	BytesPerCycle  float64 `json:"bytes_per_cycle"`

	// Repeats records every timed run, first to last.
	Repeats []Repeat `json:"repeats"`

	// BenchRows breaks the matrix down per benchmark.
	BenchRows []BenchRow `json:"bench_rows,omitempty"`
}

// Run measures the matrix and assembles the report.
func Run(ctx context.Context, opts Options) (*Report, error) {
	spec := opts.Spec
	preset := opts.Preset
	if spec.Instructions == 0 && spec.Benchmarks == nil {
		spec = sweep.Quick()
		if preset == "" {
			preset = "quick"
		}
	}
	if preset == "" {
		preset = "custom"
	}
	repeats := opts.Repeats
	if repeats <= 0 {
		repeats = 3
	}
	label := opts.Label
	if label == "" {
		label = "local"
	}

	jobs, err := spec.Jobs()
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("perf: empty matrix")
	}

	benches := spec.Benchmarks
	if benches == nil {
		benches = workloads.Names()
	}
	rep := &Report{
		Schema:       Schema,
		Label:        label,
		CreatedAt:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Preset:       preset,
		Cells:        len(jobs),
		Instructions: spec.Instructions,
		Benchmarks:   benches,
		Seeds:        spec.Seeds,
		Workers:      opts.Workers,
	}

	for i := 0; i < repeats; i++ {
		r, err := runOnce(ctx, jobs, opts.Workers)
		if err != nil {
			return nil, err
		}
		rep.Repeats = append(rep.Repeats, r)
	}

	rows, err := benchRows(ctx, jobs, opts.Workers)
	if err != nil {
		return nil, err
	}
	rep.BenchRows = rows

	best := rep.Repeats[0]
	for _, r := range rep.Repeats[1:] {
		if r.CellsPerSec(rep.Cells) > best.CellsPerSec(rep.Cells) {
			best = r
		}
	}
	secs := float64(best.WallNS) / 1e9
	rep.CellsPerSec = best.CellsPerSec(rep.Cells)
	rep.CyclesPerSec = float64(best.SimCycles) / secs
	rep.InstrsPerSec = float64(best.SimInstrs) / secs
	if best.SimCycles > 0 {
		rep.NsPerCycle = float64(best.WallNS) / float64(best.SimCycles)
		rep.AllocsPerCycle = float64(best.Allocs) / float64(best.SimCycles)
		rep.BytesPerCycle = float64(best.AllocBytes) / float64(best.SimCycles)
	}
	return rep, nil
}

// runOnce times one full pass over the matrix.
func runOnce(ctx context.Context, jobs []sweep.Job, workers int) (Repeat, error) {
	// Settle the heap so the allocation delta belongs to this repeat.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	results, err := sweep.Run(ctx, jobs, sweep.Options{Workers: workers})
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return Repeat{}, fmt.Errorf("perf: sweep: %w", err)
	}
	if jerr := sweep.FirstErr(results); jerr != nil {
		return Repeat{}, fmt.Errorf("perf: %w", jerr)
	}
	r := Repeat{
		WallNS:     wall.Nanoseconds(),
		Allocs:     m1.Mallocs - m0.Mallocs,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
	for _, res := range results {
		r.SimInstrs += res.Res.Committed
		r.SimCycles += res.Res.Cycles
	}
	return r, nil
}

// benchRows measures the per-benchmark breakdown: each benchmark's cells
// (contiguous in the bench-major matrix) run as one timed, allocation-
// metered group, serially with respect to the other benchmarks. The
// repeats above already warmed the program and simulator pools, so rows
// see steady-state throughput.
func benchRows(ctx context.Context, jobs []sweep.Job, workers int) ([]BenchRow, error) {
	var rows []BenchRow
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		for hi < len(jobs) && jobs[hi].Bench == jobs[lo].Bench {
			hi++
		}
		r, err := runOnce(ctx, jobs[lo:hi], workers)
		if err != nil {
			return nil, err
		}
		row := BenchRow{
			Bench:       jobs[lo].Bench,
			Cells:       hi - lo,
			WallNS:      r.WallNS,
			SimCycles:   r.SimCycles,
			CellsPerSec: r.CellsPerSec(hi - lo),
		}
		if r.SimCycles > 0 {
			row.NsPerCycle = float64(r.WallNS) / float64(r.SimCycles)
			row.AllocsPerCycle = float64(r.Allocs) / float64(r.SimCycles)
		}
		rows = append(rows, row)
		lo = hi
	}
	return rows, nil
}

// FileName returns the report's on-disk name, BENCH_<label>.json.
func (r *Report) FileName() string { return "BENCH_" + r.Label + ".json" }

// Write stores the report under dir (created if missing) and returns the
// full path.
func (r *Report) Write(dir string) (string, error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("perf: %w", err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("perf: %w", err)
	}
	path := filepath.Join(dir, r.FileName())
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("perf: %w", err)
	}
	return path, nil
}

// Load reads a report back, verifying its schema.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perf: %s holds schema %q, this binary reads %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// Compare gates cur against base and returns an error when:
//
//   - the two reports measured different matrices (equal cell counts are
//     not equal work);
//   - cur's cell throughput fell more than maxRegress (a fraction, e.g.
//     0.15) below the baseline — in aggregate, or for any benchmark when
//     both reports carry per-benchmark rows;
//   - maxAllocRegress is non-negative and cur's allocations per simulated
//     cycle exceed the baseline's by more than it. The bound is absolute
//     (allocs/cycle), not relative: the repository's steady state is zero
//     allocations per cycle, where a relative gate is vacuous.
//
// Faster or leaner is never an error.
func Compare(base, cur *Report, maxRegress, maxAllocRegress float64) error {
	if base.Preset != cur.Preset || base.Cells != cur.Cells ||
		base.Instructions != cur.Instructions ||
		!slices.Equal(base.Benchmarks, cur.Benchmarks) ||
		!slices.Equal(base.Seeds, cur.Seeds) {
		return fmt.Errorf("perf: baseline measured %s/%d cells at %d instrs over %v, current %s/%d at %d over %v — not comparable",
			base.Preset, base.Cells, base.Instructions, base.Benchmarks,
			cur.Preset, cur.Cells, cur.Instructions, cur.Benchmarks)
	}
	if base.CellsPerSec <= 0 {
		return fmt.Errorf("perf: baseline %s has no throughput", base.Label)
	}
	floor := base.CellsPerSec * (1 - maxRegress)
	if cur.CellsPerSec < floor {
		return fmt.Errorf("perf: %.1f cells/sec is a %.1f%% regression vs baseline %s (%.1f cells/sec; floor %.1f at -%.0f%%)",
			cur.CellsPerSec, 100*(1-cur.CellsPerSec/base.CellsPerSec),
			base.Label, base.CellsPerSec, floor, 100*maxRegress)
	}
	if maxAllocRegress >= 0 && cur.AllocsPerCycle > base.AllocsPerCycle+maxAllocRegress {
		return fmt.Errorf("perf: %.4f allocs/cycle exceeds baseline %s (%.4f) by more than %.4f — allocation creep on the cycle path",
			cur.AllocsPerCycle, base.Label, base.AllocsPerCycle, maxAllocRegress)
	}
	if len(base.BenchRows) > 0 && len(cur.BenchRows) > 0 {
		curRows := make(map[string]BenchRow, len(cur.BenchRows))
		for _, row := range cur.BenchRows {
			curRows[row.Bench] = row
		}
		for _, b := range base.BenchRows {
			c, ok := curRows[b.Bench]
			if !ok || b.CellsPerSec <= 0 {
				continue // matrix identity matched above; tolerate partial rows
			}
			if c.CellsPerSec < b.CellsPerSec*(1-maxRegress) {
				return fmt.Errorf("perf: %s: %.1f cells/sec is a %.1f%% regression vs baseline %s (%.1f cells/sec at -%.0f%%)",
					b.Bench, c.CellsPerSec, 100*(1-c.CellsPerSec/b.CellsPerSec),
					base.Label, b.CellsPerSec, 100*maxRegress)
			}
		}
	}
	return nil
}

// Summary renders a one-line overview for progress output.
func (r *Report) Summary() string {
	return fmt.Sprintf("%s: %d cells (%s), %.1f cells/s, %.2fM sim-cycles/s, %.0f ns/cycle, %.3f allocs/cycle",
		r.Label, r.Cells, r.Preset, r.CellsPerSec, r.CyclesPerSec/1e6, r.NsPerCycle, r.AllocsPerCycle)
}
