package core_test

import (
	"reflect"
	"testing"

	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/workloads"
)

// buildKernel returns the named workload's kernel (fresh build; memoization
// is irrelevant here, the test controls program identity explicitly).
func buildKernel(t *testing.T, name string) *isa.Program {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Build()
}

// TestResetDeterminism is the reuse gate behind the sweep executor's
// simulator pool: one Simulator rebound across a sequence of (config,
// program) cells — mode flips, program switches, occupancy sampling on and
// off, stores dirtying memory — must reproduce, for every cell, results
// deeply equal to a fresh simulator's. Byte-identical sweep output across
// local, cached and distributed execution rests on exactly this property.
// The fresh simulator reads the same cached image; the independent
// reference is TestPooledMatchesPrivateMemory's private memories.
func TestResetDeterminism(t *testing.T) {
	// perlbench stores every 4th iteration (exercises reloading an image
	// over copied-on-write frames); exchange2 is store-free compute
	// (exercises the program switch). The sequence deliberately revisits
	// cell 0 at the end so a state leak from any intermediate cell would
	// surface.
	perl := buildKernel(t, "perlbench")
	exch := buildKernel(t, "exchange2")
	withOcc := func(c core.Config) core.Config {
		c.SampleOccupancy = true
		return c
	}
	cells := []struct {
		name string
		cfg  core.Config
		prog *isa.Program
	}{
		{"baseline/perl", core.Baseline().WithLimits(8_000, 2_000_000), perl},
		{"wfc/perl", core.WFC().WithLimits(8_000, 2_000_000), perl},
		{"wfc+occ/perl", withOcc(core.WFC().WithLimits(8_000, 2_000_000)), perl},
		{"wfb/exch", core.WFB().WithLimits(8_000, 2_000_000), exch},
		{"baseline/perl again", core.Baseline().WithLimits(8_000, 2_000_000), perl},
	}

	reused := core.New(cells[0].cfg, cells[0].prog)
	for i, cell := range cells {
		var got *core.Results
		if i == 0 {
			got = reused.Run().Detach()
		} else {
			reused.Reset(cell.cfg, cell.prog)
			got = reused.Run().Detach()
		}
		want := core.Run(cell.cfg, cell.prog)
		if got.Mode != want.Mode {
			t.Fatalf("%s: mode %v, want %v", cell.name, got.Mode, want.Mode)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s: reused simulator diverged from fresh run\nreused: %s\nfresh:  %s",
				cell.name, got.Summary(), want.Summary())
		}
	}
}

// TestDetachIsolatesResults: results detached before a Reset must not change
// when the simulator runs the next cell.
func TestDetachIsolatesResults(t *testing.T) {
	exch := buildKernel(t, "exchange2")
	perl := buildKernel(t, "perlbench")
	cfg := core.WFC().WithLimits(5_000, 2_000_000)

	sim := core.New(cfg, exch)
	first := sim.Run().Detach()
	snapshot := *first.Stats

	sim.Reset(core.Baseline().WithLimits(5_000, 2_000_000), perl)
	sim.Run()

	if !reflect.DeepEqual(snapshot, *first.Stats) {
		t.Fatal("detached results changed when the simulator was reused")
	}
}

// TestAcquireMatchesNew: a simulator drawn from the shared pool after
// another cell was released into it must reproduce a fresh simulator's
// results for the next (config, program), including a repeat of the first
// cell's program.
func TestAcquireMatchesNew(t *testing.T) {
	perl := buildKernel(t, "perlbench")
	exch := buildKernel(t, "exchange2")
	cells := []struct {
		cfg  core.Config
		prog *isa.Program
	}{
		{core.WFC().WithLimits(5_000, 2_000_000), perl},
		{core.Baseline().WithLimits(5_000, 2_000_000), exch},
		{core.WFB().WithLimits(5_000, 2_000_000), perl},
		{core.WFB().WithLimits(5_000, 2_000_000), perl},
	}
	for i, c := range cells {
		sim := core.Acquire(c.cfg, c.prog)
		got := sim.Run().Detach()
		sim.Release()
		if want := core.Run(c.cfg, c.prog); !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("cell %d: pooled simulator diverged from fresh run\npooled: %s\nfresh:  %s",
				i, got.Summary(), want.Summary())
		}
	}
}
