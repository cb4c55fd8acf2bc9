package pipeline_test

import (
	"testing"

	"safespec/internal/asm"
	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/shadow"
)

// buildMispredictProbe returns a program whose mispredicted wrong path
// loads wrongVA; the committed path never touches it.
func buildMispredictProbe(wrongVA uint64) *isa.Program {
	const condAddr = uint64(0x2_0000)
	b := asm.NewBuilder()
	b.Region(condAddr, 4096, false)
	b.Region(wrongVA, 4096, false)
	b.Data(condAddr, 1)

	// Train the branch not-taken over 8 iterations with cond=1.
	b.Movi(isa.S0, 0)
	b.Movi(isa.S1, 8)
	b.Label("train")
	b.Movi(isa.T0, int64(condAddr))
	b.Load(isa.T1, isa.T0, 0)
	b.Beq(isa.T1, isa.Zero, "skip")
	b.Addi(isa.S2, isa.S2, 1)
	b.Label("skip")
	b.Addi(isa.S0, isa.S0, 1)
	b.Blt(isa.S0, isa.S1, "train")

	// Arm: cond=0 + flush -> the branch resolves late and mispredicts
	// into the wrong path, which loads wrongVA.
	b.Movi(isa.T0, int64(condAddr))
	b.Movi(isa.T2, 0)
	b.Store(isa.T2, isa.T0, 0)
	b.Clflush(isa.T0, 0)
	b.Fence()
	b.Load(isa.T1, isa.T0, 0)
	b.Beq(isa.T1, isa.Zero, "out") // actually taken, predicted not-taken
	b.Movi(isa.T3, int64(wrongVA))
	b.Load(isa.T4, isa.T3, 0) // wrong-path-only load
	b.Add(isa.T4, isa.T4, isa.T4)
	b.Label("out")
	b.Fence()
	b.Halt()
	return b.MustBuild()
}

// paOf translates a VA in a finished simulation.
func paOf(sim *core.Simulator, va uint64) uint64 {
	tr := sim.CPU().Mem().Walk(va)
	return tr.Frame + (va & 0xFFF)
}

// TestWrongPathFillVisibility is the heart of the defense: a squashed
// load's line must be present in the committed D-cache on the baseline and
// absent under both SafeSpec policies.
func TestWrongPathFillVisibility(t *testing.T) {
	const wrongVA = uint64(0x9_0000)
	for _, tc := range []struct {
		mode core.Mode
		want bool // line present in committed caches after the run?
	}{
		{core.ModeBaseline, true},
		{core.ModeWFB, false},
		{core.ModeWFC, false},
	} {
		prog := buildMispredictProbe(wrongVA)
		sim := core.New(core.DefaultConfig(tc.mode), prog)
		res := sim.Run()
		if res.Mispredicts == 0 {
			t.Fatalf("%v: the probe branch never mispredicted", tc.mode)
		}
		pa := paOf(sim, wrongVA)
		ms := sim.CPU().MemSys()
		got := ms.Hier.L1D.Contains(pa) || ms.Hier.L2.Contains(pa) || ms.Hier.L3.Contains(pa)
		if got != tc.want {
			t.Errorf("%v: wrong-path line present=%v, want %v", tc.mode, got, tc.want)
		}
		// Under SafeSpec the line must not linger in the shadow either:
		// the squash annuls it in place.
		if tc.mode.SafeSpec() && ms.ShD.Contains(pa&^63) {
			t.Errorf("%v: squashed line still in shadow d-cache", tc.mode)
		}
	}
}

// TestShadowDrainsAtHalt: after a full run every shadow structure must be
// empty — all allocations were committed or squashed (no handle leaks).
func TestShadowDrainsAtHalt(t *testing.T) {
	prog := buildMispredictProbe(0x9_0000)
	for _, mode := range []core.Mode{core.ModeWFB, core.ModeWFC} {
		sim := core.New(core.DefaultConfig(mode), prog)
		sim.Run()
		ms := sim.CPU().MemSys()
		for _, s := range []struct {
			name string
			n    int
		}{
			{"shadow-dcache", ms.ShD.Len()},
			{"shadow-icache", ms.ShI.Len()},
			{"shadow-dtlb", ms.ShDTLB.Len()},
			{"shadow-itlb", ms.ShITLB.Len()},
		} {
			if s.n != 0 {
				t.Errorf("%v: %s holds %d entries after halt (leaked handles)", mode, s.name, s.n)
			}
		}
	}
}

// TestBlockedFetchReleasesWalk: when a full Block-policy shadow I-cache
// turns a fetch away, the shadow iTLB entry its page walk just allocated is
// annulled, not dropped. A straight-line program crossing six code pages
// with a 1-entry shadow I-cache blocks at every page crossing; each
// translation must end committed or squashed, none left live at halt.
func TestBlockedFetchReleasesWalk(t *testing.T) {
	b := asm.NewBuilder()
	for i := 0; i < 6_000; i++ {
		b.Addi(isa.T0, isa.T0, 1)
	}
	b.Halt()
	cfg := core.WFC()
	cfg.Pipeline.ShadowI = shadow.Policy{Name: "shadow-icache", Entries: 1, WhenFull: shadow.Block}
	sim := core.New(cfg, b.MustBuild())
	res := sim.Run()
	if res.ShI.BlockedCycles == 0 {
		t.Fatal("test setup: the shadow I-cache never blocked a fetch")
	}
	if n := sim.CPU().MemSys().ShITLB.Len(); n != 0 {
		t.Errorf("shadow iTLB holds %d live entries after halt", n)
	}
	st := res.ShITLB
	if st.Allocs != st.Committed+st.Squashed {
		t.Errorf("shadow iTLB: allocs=%d, committed=%d + squashed=%d", st.Allocs, st.Committed, st.Squashed)
	}
}

// TestShadowDispositionConservation: allocations must equal committed +
// squashed + replaced + flushed dispositions at the end of a run.
func TestShadowDispositionConservation(t *testing.T) {
	prog := buildMispredictProbe(0x9_0000)
	sim := core.New(core.WFC(), prog)
	res := sim.Run()
	check := func(name string, allocs, committed, squashed, replaced, flushes uint64) {
		if allocs != committed+squashed+replaced+flushes {
			t.Errorf("%s: allocs=%d but dispositions=%d+%d+%d+%d",
				name, allocs, committed, squashed, replaced, flushes)
		}
	}
	check("d-cache", res.ShD.Allocs, res.ShD.Committed, res.ShD.Squashed, res.ShD.Replaced, res.ShD.Flushes)
	check("i-cache", res.ShI.Allocs, res.ShI.Committed, res.ShI.Squashed, res.ShI.Replaced, res.ShI.Flushes)
	check("dtlb", res.ShDTLB.Allocs, res.ShDTLB.Committed, res.ShDTLB.Squashed, res.ShDTLB.Replaced, res.ShDTLB.Flushes)
	check("itlb", res.ShITLB.Allocs, res.ShITLB.Committed, res.ShITLB.Squashed, res.ShITLB.Replaced, res.ShITLB.Flushes)
}

// TestCommittedPathShadowMotion: a committed load's line must move from
// the shadow to the committed hierarchy.
func TestCommittedPathShadowMotion(t *testing.T) {
	const dataVA = uint64(0x3_0000)
	b := asm.NewBuilder()
	b.Region(dataVA, 4096, false)
	b.Movi(isa.T0, int64(dataVA))
	b.Load(isa.T1, isa.T0, 0) // cold miss -> shadow fill -> commit motion
	b.Fence()
	b.Halt()
	for _, mode := range []core.Mode{core.ModeWFB, core.ModeWFC} {
		sim := core.New(core.DefaultConfig(mode), b.MustBuild())
		res := sim.Run()
		pa := paOf(sim, dataVA)
		ms := sim.CPU().MemSys()
		if !ms.Hier.L1D.Contains(pa) {
			t.Errorf("%v: committed load's line not in L1D", mode)
		}
		if res.ShD.Committed == 0 {
			t.Errorf("%v: no shadow d-cache entry was committed", mode)
		}
	}
}

// TestMeltdownWFBvsWFC pins the one behavioural split between the two
// policies at the microarchitectural level (not just the attack outcome):
// the dependent line of a faulting load reaches the committed cache under
// WFB but not under WFC.
func TestMeltdownWFBvsWFC(t *testing.T) {
	const (
		kernVA  = uint64(0x5_0000)
		probeVA = uint64(0x6_0000)
	)
	build := func() *isa.Program {
		b := asm.NewBuilder()
		b.KernelData(kernVA, 3)
		b.Region(probeVA, 16*4096, false)
		b.SetTrapHandler("done")
		// Delay the kernel load's commit so the dependent access issues.
		b.Region(0x8_0000, 4096, false)
		b.Movi(isa.T5, 0x8_0000)
		b.Load(isa.T6, isa.T5, 0)
		for i := 0; i < 12; i++ {
			b.Addi(isa.T6, isa.T6, 1)
		}
		b.Movi(isa.T0, int64(kernVA))
		b.Load(isa.T1, isa.T0, 0) // faults at commit; forwards 3
		b.Shli(isa.T1, isa.T1, 12)
		b.Addi(isa.T1, isa.T1, int64(probeVA))
		b.Load(isa.T2, isa.T1, 0) // dependent transmit
		b.Label("done")
		b.Halt()
		return b.MustBuild()
	}
	for _, tc := range []struct {
		mode core.Mode
		want bool
	}{
		{core.ModeWFB, true},  // no branch to wait for -> moved at issue
		{core.ModeWFC, false}, // fault annuls before commit
	} {
		sim := core.New(core.DefaultConfig(tc.mode), build())
		res := sim.Run()
		if res.Faults != 1 {
			t.Fatalf("%v: faults = %d, want 1", tc.mode, res.Faults)
		}
		pa := paOf(sim, probeVA+3*4096)
		got := sim.CPU().MemSys().Hier.L1D.Contains(pa)
		if got != tc.want {
			t.Errorf("%v: transmit line present=%v, want %v", tc.mode, got, tc.want)
		}
	}
}

// TestClflushPurgesShadow: a committed clflush must remove the line from
// the shadow structures too.
func TestClflushPurgesShadow(t *testing.T) {
	const dataVA = uint64(0x3_0000)
	b := asm.NewBuilder()
	b.Region(dataVA, 4096, false)
	b.Movi(isa.T0, int64(dataVA))
	b.Load(isa.T1, isa.T0, 0)
	b.Fence()
	b.Clflush(isa.T0, 0)
	b.Fence()
	b.Halt()
	sim := core.New(core.WFC(), b.MustBuild())
	sim.Run()
	pa := paOf(sim, dataVA)
	ms := sim.CPU().MemSys()
	if ms.Hier.L1D.Contains(pa) || ms.ShD.Contains(pa&^63) {
		t.Error("flushed line still visible somewhere")
	}
}

// TestOccupancySamplingBounds: sampled occupancies never exceed the
// structure capacities.
func TestOccupancySamplingBounds(t *testing.T) {
	prog := buildMispredictProbe(0x9_0000)
	cfg := core.WFC()
	cfg.SampleOccupancy = true
	sim := core.New(cfg, prog)
	res := sim.Run()
	if res.OccD == nil {
		t.Fatal("occupancy histograms missing")
	}
	if res.OccD.Max() > 72 || res.OccI.Max() > 224 {
		t.Errorf("occupancy exceeded capacity: d=%d i=%d", res.OccD.Max(), res.OccI.Max())
	}
	if res.OccD.N() == 0 {
		t.Error("no occupancy samples recorded")
	}
	// Samples must cover (almost) every cycle, including fast-forwarded
	// ones.
	if res.OccD.N() < res.Cycles-1 {
		t.Errorf("samples %d < cycles %d", res.OccD.N(), res.Cycles)
	}
}

// TestBaselineHasNoShadow: baseline mode must not instantiate shadow
// structures at all.
func TestBaselineHasNoShadow(t *testing.T) {
	b := asm.NewBuilder()
	b.Halt()
	sim := core.New(core.Baseline(), b.MustBuild())
	sim.Run()
	ms := sim.CPU().MemSys()
	if ms.ShD != nil || ms.ShI != nil || ms.ShDTLB != nil || ms.ShITLB != nil {
		t.Error("baseline instantiated shadow structures")
	}
}
