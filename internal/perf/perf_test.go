package perf

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"safespec/internal/sweep"
)

// tinySpec is a one-benchmark matrix small enough for unit tests.
func tinySpec() sweep.MatrixSpec {
	return sweep.MatrixSpec{
		Benchmarks:   []string{"exchange2"},
		Instructions: 1_000,
		MaxCycles:    1_000_000,
	}
}

func TestRunMeasuresAndReports(t *testing.T) {
	rep, err := Run(context.Background(), Options{
		Label:   "test",
		Spec:    tinySpec(),
		Preset:  "tiny",
		Repeats: 2,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Errorf("schema %q, want %q", rep.Schema, Schema)
	}
	if rep.Cells != 3 { // one benchmark, three standard modes
		t.Errorf("cells = %d, want 3", rep.Cells)
	}
	if len(rep.Repeats) != 2 {
		t.Fatalf("recorded %d repeats, want 2", len(rep.Repeats))
	}
	if rep.CellsPerSec <= 0 || rep.CyclesPerSec <= 0 || rep.NsPerCycle <= 0 {
		t.Errorf("headline metrics not populated: %+v", rep)
	}
	for i, r := range rep.Repeats {
		if r.SimCycles == 0 || r.SimInstrs == 0 || r.WallNS <= 0 {
			t.Errorf("repeat %d incomplete: %+v", i, r)
		}
	}
	// Headline must be the best repeat.
	best := 0.0
	for _, r := range rep.Repeats {
		if v := r.CellsPerSec(rep.Cells); v > best {
			best = v
		}
	}
	if rep.CellsPerSec != best {
		t.Errorf("headline %.2f cells/s is not the best repeat (%.2f)", rep.CellsPerSec, best)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	rep, err := Run(context.Background(), Options{Label: "rt", Spec: tinySpec(), Preset: "tiny", Repeats: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := rep.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_rt.json" {
		t.Errorf("report file %s, want BENCH_rt.json", filepath.Base(path))
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != rep.Label || back.Cells != rep.Cells || back.CellsPerSec != rep.CellsPerSec {
		t.Errorf("round trip changed the report: %+v vs %+v", back, rep)
	}
}

func TestLoadRejectsForeignSchema(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{Schema: "other/v9", Label: "x"}
	path, err := rep.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema accepted (err=%v)", err)
	}
}

func TestCompareGate(t *testing.T) {
	base := &Report{
		Schema: Schema, Label: "base", Preset: "quick", Cells: 18,
		Instructions: 15_000, Benchmarks: []string{"a", "b"}, CellsPerSec: 100,
	}
	same := func() *Report {
		r := *base
		r.Label = "cur"
		return &r
	}

	cur := same()
	cur.CellsPerSec = 90 // -10%: inside a 15% budget
	if err := Compare(base, cur, 0.15, 0.01); err != nil {
		t.Errorf("10%% regression rejected under a 15%% budget: %v", err)
	}
	cur.CellsPerSec = 80 // -20%: outside
	if err := Compare(base, cur, 0.15, 0.01); err == nil {
		t.Error("20% regression accepted under a 15% budget")
	}
	cur.CellsPerSec = 400 // faster is never an error
	if err := Compare(base, cur, 0.15, 0.01); err != nil {
		t.Errorf("speedup rejected: %v", err)
	}

	foreign := same()
	foreign.Preset = "custom"
	if err := Compare(base, foreign, 0.15, 0.01); err == nil {
		t.Error("mismatched presets compared without error")
	}
	// Same preset and cell count but different work must also be refused:
	// equal cell counts alone do not make equal matrices.
	heavier := same()
	heavier.Instructions = 150_000
	if err := Compare(base, heavier, 0.15, 0.01); err == nil {
		t.Error("mismatched instruction budgets compared without error")
	}
	otherBench := same()
	otherBench.Benchmarks = []string{"a", "c"}
	if err := Compare(base, otherBench, 0.15, 0.01); err == nil {
		t.Error("mismatched benchmark sets compared without error")
	}
	seeded := same()
	seeded.Seeds = []int64{1}
	if err := Compare(base, seeded, 0.15, 0.01); err == nil {
		t.Error("mismatched seed fans compared without error")
	}
	empty := same()
	empty.Label, empty.CellsPerSec = "empty", 0
	if err := Compare(empty, same(), 0.15, 0.01); err == nil {
		t.Error("zero-throughput baseline accepted")
	}
}

func TestCompareAllocGate(t *testing.T) {
	base := &Report{
		Schema: Schema, Label: "base", Preset: "quick", Cells: 18,
		Instructions: 15_000, Benchmarks: []string{"a"}, CellsPerSec: 100,
		AllocsPerCycle: 0,
	}
	crept := *base
	crept.Label, crept.AllocsPerCycle = "cur", 0.5
	if err := Compare(base, &crept, 0.15, 0.01); err == nil {
		t.Error("allocation creep passed the gate: 0 -> 0.5 allocs/cycle under a 0.01 budget")
	} else if !strings.Contains(err.Error(), "allocs/cycle") {
		t.Errorf("allocation-creep error does not name the metric: %v", err)
	}
	slight := *base
	slight.Label, slight.AllocsPerCycle = "cur", 0.005
	if err := Compare(base, &slight, 0.15, 0.01); err != nil {
		t.Errorf("in-budget allocation noise rejected: %v", err)
	}
	if err := Compare(base, &crept, 0.15, -1); err != nil {
		t.Errorf("negative budget must disable the allocation gate: %v", err)
	}
	leaner := *base
	leaner.Label = "cur"
	base.AllocsPerCycle = 1
	if err := Compare(base, &leaner, 0.15, 0.01); err != nil {
		t.Errorf("fewer allocations rejected: %v", err)
	}
}

func TestComparePerBenchRows(t *testing.T) {
	mk := func(label string, perBench map[string]float64) *Report {
		r := &Report{
			Schema: Schema, Label: label, Preset: "quick", Cells: 6,
			Instructions: 15_000, Benchmarks: []string{"a", "b"}, CellsPerSec: 100,
		}
		for _, b := range r.Benchmarks {
			r.BenchRows = append(r.BenchRows, BenchRow{Bench: b, Cells: 3, CellsPerSec: perBench[b]})
		}
		return r
	}
	base := mk("base", map[string]float64{"a": 50, "b": 50})

	ok := mk("cur", map[string]float64{"a": 48, "b": 52})
	if err := Compare(base, ok, 0.15, 0.01); err != nil {
		t.Errorf("in-budget per-bench variation rejected: %v", err)
	}
	// Aggregate holds but one benchmark collapsed: the v2 gate must catch it.
	skewed := mk("cur", map[string]float64{"a": 20, "b": 80})
	if err := Compare(base, skewed, 0.15, 0.01); err == nil {
		t.Error("per-benchmark collapse passed the gate behind a healthy aggregate")
	} else if !strings.Contains(err.Error(), "a:") {
		t.Errorf("per-bench error does not name the benchmark: %v", err)
	}
	// v1 baselines carry no rows: only the aggregate gates.
	v1 := mk("base", nil)
	v1.BenchRows = nil
	if err := Compare(v1, skewed, 0.15, 0.01); err != nil {
		t.Errorf("v1 baseline must gate the aggregate only: %v", err)
	}
}

func TestRunEmitsBenchRows(t *testing.T) {
	spec := tinySpec()
	spec.Benchmarks = []string{"exchange2", "mcf"}
	rep, err := Run(context.Background(), Options{Label: "rows", Spec: spec, Preset: "tiny", Repeats: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BenchRows) != 2 {
		t.Fatalf("bench rows: %d, want one per benchmark (2)", len(rep.BenchRows))
	}
	var cells int
	for _, row := range rep.BenchRows {
		if row.Bench != "exchange2" && row.Bench != "mcf" {
			t.Errorf("unexpected row bench %q", row.Bench)
		}
		if row.CellsPerSec <= 0 || row.NsPerCycle <= 0 || row.SimCycles == 0 {
			t.Errorf("row %s incomplete: %+v", row.Bench, row)
		}
		cells += row.Cells
	}
	if cells != rep.Cells {
		t.Errorf("rows cover %d cells, matrix has %d", cells, rep.Cells)
	}
}

// TestLoadRejectsV1Report: v1 reports (no per-benchmark rows) are no longer
// read; Load must name the schema it found and the one it reads.
func TestLoadRejectsV1Report(t *testing.T) {
	dir := t.TempDir()
	v1 := &Report{
		Schema: "safespec/perf/v1", Label: "old", Preset: "quick", Cells: 18,
		Instructions: 15_000, CellsPerSec: 44,
	}
	path, err := v1.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("v1 report accepted")
	}
	for _, want := range []string{`"safespec/perf/v1"`, `"` + Schema + `"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
