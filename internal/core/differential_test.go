package core_test

import (
	"cmp"
	"reflect"
	"slices"
	"sync"
	"testing"

	"safespec/internal/asm"
	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/mem"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

// private runs (cfg, prog) on a CPU around its own freshly built memory —
// pipeline.New's BuildMemory path, which builds its own page tables and
// copies the program's pages on its own writes, independent of the image
// cache behind core.New/Acquire — and returns the CPU after the run.
func private(cfg core.Config, prog *isa.Program) (*pipeline.CPU, *pipeline.Stats) {
	cpu := pipeline.New(cfg.Pipeline, prog)
	if cfg.SampleOccupancy {
		cpu.EnableOccupancySampling()
	}
	return cpu, cpu.Run()
}

// TestPooledMatchesPrivateMemory: pooled simulators reading shared images
// must reproduce runs on an independent private memory for every kernel of
// the full evaluation matrix in every mode. The cells run in an order that
// switches program on every cell, starting with the largest images (mcf,
// omnetpp, lbm), so each Acquire rebinds a recycled memory to a different
// image.
func TestPooledMatchesPrivateMemory(t *testing.T) {
	spec := sweep.Full()
	spec.Instructions = 2_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	first := []string{"mcf", "omnetpp", "lbm"}
	rank := func(bench string) int {
		if i := slices.Index(first, bench); i >= 0 {
			return i
		}
		return len(first)
	}
	// Jobs come bench-major; a stable sort by mode, then by rank, makes
	// consecutive cells switch program.
	slices.SortStableFunc(jobs, func(a, b sweep.Job) int {
		if c := cmp.Compare(a.Mode, b.Mode); c != 0 {
			return c
		}
		return rank(a.Bench) - rank(b.Bench)
	})
	if len(jobs) != 66 {
		t.Fatalf("full matrix has %d cells, want 22 kernels x 3 modes", len(jobs))
	}
	for _, j := range jobs {
		prog, err := j.Program()
		if err != nil {
			t.Fatal(err)
		}
		sim := core.Acquire(j.Config, prog)
		got := sim.Run().Detach()
		sim.Release()
		if _, want := private(j.Config, prog); !reflect.DeepEqual(got.Stats, want) {
			t.Errorf("%s: pooled simulator diverged from a private memory\npooled:  %s\nprivate: %s",
				j, got.Summary(), (&core.Results{Stats: want, Mode: got.Mode}).Summary())
		}
	}
}

// storeWords is the number of 64-bit words storeLoop cycles its stores over
// (two data pages).
const storeWords = 1024

// storeLoop returns a program that stores a counter to consecutive words of
// a two-page region forever, one store per six instructions.
func storeLoop() *isa.Program {
	const base = 0x40_0000
	b := asm.NewBuilder()
	b.Region(base, storeWords*8, false)
	b.Movi(isa.S0, base)
	b.Movi(isa.S1, 0)
	b.Label("loop")
	b.Andi(isa.T0, isa.S1, storeWords-1)
	b.Shli(isa.T0, isa.T0, 3)
	b.Add(isa.T1, isa.S0, isa.T0)
	b.Store(isa.S1, isa.T1, 0)
	b.Addi(isa.S1, isa.S1, 1)
	b.Jmp("loop")
	return b.MustBuild()
}

// regionWords reads storeLoop's region through cpu's memory, or returns
// nil if any word faults.
func regionWords(cpu *pipeline.CPU) []int64 {
	out := make([]int64, storeWords)
	for i := range out {
		v, f := cpu.Mem().Read(0x40_0000+uint64(i)*8, true)
		if f != mem.FaultNone {
			return nil
		}
		out[i] = v
	}
	return out
}

// TestStoreHeavyPooledMatchesPrivate: a store-heavy run far past the point
// where replaying a write log would cost more than rebuilding the memory
// (two stores per backing word) still matches a private memory, in its
// statistics and in the memory it leaves behind, including when the pooled
// simulator already ran the same program.
func TestStoreHeavyPooledMatchesPrivate(t *testing.T) {
	prog := storeLoop()
	// The image backs two page tables, one code page and two data pages.
	const backingWords = 2*4096 + 3*512
	cfg := core.WFC().WithLimits(130_000, 10_000_000)
	cpu, want := private(cfg, prog)
	if want.CommittedStores <= 2*backingWords {
		t.Fatalf("only %d stores for %d backing words; raise the budget", want.CommittedStores, backingWords)
	}
	wantMem := regionWords(cpu)
	for run := 0; run < 2; run++ {
		sim := core.Acquire(cfg, prog)
		got := sim.Run().Detach()
		gotMem := regionWords(sim.CPU())
		sim.Release()
		if !reflect.DeepEqual(got.Stats, want) {
			t.Errorf("run %d: pooled store-heavy run diverged\npooled: %s", run, got.Summary())
		}
		if !slices.Equal(gotMem, wantMem) {
			t.Errorf("run %d: pooled memory holds different stored values", run)
		}
	}
}

// TestConcurrentSharedImage: simulators on several goroutines reading and
// copying from one shared image at once each match a private memory.
func TestConcurrentSharedImage(t *testing.T) {
	prog := storeLoop()
	cfgs := []core.Config{
		core.Baseline().WithLimits(20_000, 10_000_000),
		core.WFB().WithLimits(20_000, 10_000_000),
		core.WFC().WithLimits(20_000, 10_000_000),
		core.WFC().WithLimits(30_000, 10_000_000),
	}
	wants := make([]*pipeline.Stats, len(cfgs))
	wantMems := make([][]int64, len(cfgs))
	for i, cfg := range cfgs {
		var cpu *pipeline.CPU
		cpu, wants[i] = private(cfg, prog)
		wantMems[i] = regionWords(cpu)
	}
	var wg sync.WaitGroup
	got := make([]*core.Results, 2*len(cfgs))
	gotMems := make([][]int64, len(got))
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := core.New(cfgs[g%len(cfgs)], prog)
			got[g] = sim.Run()
			gotMems[g] = regionWords(sim.CPU())
		}()
	}
	wg.Wait()
	for g, res := range got {
		if want := wants[g%len(cfgs)]; !reflect.DeepEqual(res.Stats, want) {
			t.Errorf("goroutine %d: concurrent run on a shared image diverged\ngot: %s", g, res.Summary())
		}
		if !slices.Equal(gotMems[g], wantMems[g%len(cfgs)]) {
			t.Errorf("goroutine %d: memory differs from a private run's", g)
		}
	}
}
