package workloads

import (
	"testing"

	"safespec/internal/core"
	"safespec/internal/isa"
)

func TestRegistryComplete(t *testing.T) {
	// The 21 SPEC2017 benchmarks of the paper's figures, in figure order.
	want := []string{
		"perlbench", "mcf", "omnetpp", "xalancbmk", "x264", "deepsjeng",
		"exchange2", "xz", "bwaves", "cactuBSSN", "namd", "povray", "lbm",
		"wrf", "blender", "cam4", "pop2", "imagick", "nab", "fotonik3d",
		"roms", "gcc",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d benchmarks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("mcf")
	if err != nil || w.Name != "mcf" {
		t.Errorf("ByName(mcf) = %v, %v", w.Name, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName of unknown benchmark should fail")
	}
}

func TestAllBuild(t *testing.T) {
	for _, w := range All() {
		prog := w.Build()
		if len(prog.Code) == 0 {
			t.Errorf("%s: empty program", w.Name)
		}
		// Every kernel must declare its working set.
		if len(prog.Regions) == 0 {
			t.Errorf("%s: no memory regions", w.Name)
		}
	}
}

func TestAllRunBriefly(t *testing.T) {
	// Every kernel must run correctly under every mode: committed
	// instruction budget reached, no faults, nonzero IPC.
	for _, w := range All() {
		prog := w.Build()
		for _, mode := range []core.Mode{core.ModeBaseline, core.ModeWFC} {
			cfg := core.DefaultConfig(mode).WithLimits(3000, 2_000_000)
			res := core.Run(cfg, prog)
			if res.Committed < 3000 {
				t.Errorf("%s/%v: committed %d < 3000 (stuck or faulted)", w.Name, mode, res.Committed)
			}
			if res.Faults != 0 {
				t.Errorf("%s/%v: %d unexpected faults", w.Name, mode, res.Faults)
			}
			if res.IPC() <= 0 {
				t.Errorf("%s/%v: IPC %f", w.Name, mode, res.IPC())
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	w, _ := ByName("deepsjeng")
	run := func() (uint64, int64) {
		sim := core.New(core.WFC().WithLimits(5000, 2_000_000), w.Build())
		res := sim.Run()
		return res.Cycles, sim.CPU().Reg(isa.S3)
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Errorf("non-deterministic: cycles %d vs %d, acc %d vs %d", c1, c2, r1, r2)
	}
}

func TestPatternCharacteristics(t *testing.T) {
	// mcf (pointer chase over 4 MiB) must have a much higher d-miss rate
	// than exchange2 (compute over 64 KiB): the working-set knob works.
	run := func(name string) float64 {
		w, _ := ByName(name)
		res := core.Run(core.Baseline().WithLimits(8000, 5_000_000), w.Build())
		return res.DReadMissRate()
	}
	mcf := run("mcf")
	exch := run("exchange2")
	if mcf < 2*exch {
		t.Errorf("mcf miss rate %.4f not clearly above exchange2 %.4f", mcf, exch)
	}
}

func TestChasePermutationIsSingleCycle(t *testing.T) {
	// The pointer-chase initialization must form one cycle covering every
	// word — otherwise the workload would spin on a short loop and the
	// working-set size would lie.
	s := Spec{Name: "t", DataBytes: 4096, Pattern: PatternChase, LoadsPerIter: 1, Seed: 5}
	prog := s.Build()
	words := 4096 / 8
	next := make(map[uint64]uint64, words)
	for _, p := range prog.Pages {
		for i, v := range p.Words {
			next[p.VA+uint64(i)*8] = uint64(v)
		}
	}
	if len(next) != words {
		t.Fatalf("chase table has %d entries, want %d", len(next), words)
	}
	seen := make(map[uint64]bool, words)
	cur := dataBase
	for i := 0; i < words; i++ {
		if seen[cur] {
			t.Fatalf("chase cycle shorter than %d words (revisited %#x at step %d)", words, cur, i)
		}
		seen[cur] = true
		var ok bool
		cur, ok = next[cur]
		if !ok {
			t.Fatalf("chase chain broken at %#x", cur)
		}
	}
	if cur != dataBase {
		t.Error("chase chain does not close into a cycle")
	}
}

func TestBranchEntropyRaisesMispredicts(t *testing.T) {
	run := func(entropy int) float64 {
		s := Spec{Name: "t", DataBytes: 64 << 10, Pattern: PatternSeq,
			LoadsPerIter: 1, BranchEntropy: entropy, Seed: 9}
		res := core.Run(core.Baseline().WithLimits(10000, 2_000_000), s.Build())
		return res.Bpred.MispredictRate()
	}
	none := run(0)
	high := run(2)
	if high <= none {
		t.Errorf("entropy 2 mispredict rate %.4f not above entropy 0 %.4f", high, none)
	}
}

func TestCodeBlocksRaiseICachePressure(t *testing.T) {
	run := func(blocks int) float64 {
		s := Spec{Name: "t", DataBytes: 64 << 10, Pattern: PatternSeq,
			LoadsPerIter: 1, CodeBlocks: blocks, BlockPadLines: 4, Seed: 9}
		res := core.Run(core.Baseline().WithLimits(20000, 2_000_000), s.Build())
		return res.IFetchMissRate()
	}
	small := run(0)
	big := run(192) // 192×4 lines = 48 KiB > 32 KiB L1I
	if big <= small {
		t.Errorf("big code footprint i-miss %.5f not above small %.5f", big, small)
	}
}

func TestPageSpanRaisesDTLBMisses(t *testing.T) {
	run := func(pages int) float64 {
		s := Spec{Name: "t", DataBytes: 32 << 10, Pattern: PatternSeq,
			LoadsPerIter: 1, PageSpan: pages, Seed: 9}
		res := core.Run(core.Baseline().WithLimits(20000, 2_000_000), s.Build())
		return res.DTLB.MissRate()
	}
	none := run(0)
	many := run(256) // 256 pages >> 64-entry dTLB
	if many <= none {
		t.Errorf("page-span dTLB miss %.5f not above baseline %.5f", many, none)
	}
}
