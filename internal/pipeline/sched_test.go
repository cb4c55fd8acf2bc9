package pipeline_test

import (
	"math/rand"
	"reflect"
	"testing"

	"safespec/internal/asm"
	"safespec/internal/attacks"
	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/pipeline"
	"safespec/internal/shadow"
)

// diffRun executes prog under cfg on the event-driven scheduler and on the
// reference scan scheduler and requires bit-identical statistics and
// architectural state. This is the equivalence contract of the event
// scheduler: same issues, same writebacks, same squashes, same skipped
// cycles — not just the same final registers. The event run is stepped one
// cycle at a time with the scheduler invariants checked after every Step,
// so a bug both schedulers share (clearTag, the wheel) still shows.
func diffRun(t *testing.T, name string, cfg pipeline.Config, prog *isa.Program,
	sample bool, setup func(*pipeline.CPU, *isa.Program)) {
	t.Helper()
	run := func(ref bool) (*pipeline.Stats, [isa.RegCount]int64) {
		cpu := pipeline.New(cfg, prog)
		cpu.SetReferenceScheduler(ref)
		if sample {
			cpu.EnableOccupancySampling()
		}
		if setup != nil {
			setup(cpu, prog)
		}
		if !ref {
			stepChecked(t, name, cpu, cfg.Normalize())
		}
		st := cpu.Run() // finishes the stepped run and finalizes statistics
		var regs [isa.RegCount]int64
		for r := 0; r < isa.RegCount; r++ {
			regs[r] = cpu.Reg(isa.Reg(r))
		}
		return st, regs
	}
	evSt, evRegs := run(false)
	refSt, refRegs := run(true)
	if !reflect.DeepEqual(evSt, refSt) {
		t.Errorf("%s: event scheduler statistics diverge from reference scan\nevent: cycles=%d committed=%d squashed=%d mispred=%d\nref:   cycles=%d committed=%d squashed=%d mispred=%d",
			name, evSt.Cycles, evSt.Committed, evSt.Squashed, evSt.Mispredicts,
			refSt.Cycles, refSt.Committed, refSt.Squashed, refSt.Mispredicts)
	}
	if evRegs != refRegs {
		t.Errorf("%s: event scheduler register file diverges from reference scan", name)
	}
}

// stepChecked steps cpu under Run's loop condition and checks the scheduler
// invariants after every Step, failing the test at the first violation.
func stepChecked(t *testing.T, name string, cpu *pipeline.CPU, cfg pipeline.Config) {
	t.Helper()
	for !cpu.Halted() && cpu.Cycle() < cfg.MaxCycles && cpu.Committed() < cfg.MaxInstrs {
		cpu.Step()
		if err := cpu.CheckSchedInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// modeConfigs returns the three protection modes' pipeline configurations.
func modeConfigs() map[string]pipeline.Config {
	return map[string]pipeline.Config{
		"baseline": core.Baseline().Pipeline,
		"wfb":      core.WFB().Pipeline,
		"wfc":      core.WFC().Pipeline,
	}
}

// TestSchedulerDifferentialRandom pins event-vs-scan equivalence on random
// (terminating) programs across all three modes, with occupancy sampling on
// half the trials so the fast-forward bulk-sampling path is covered too.
func TestSchedulerDifferentialRandom(t *testing.T) {
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		seed := int64(trial)*6007 + 13
		prog := randomProgram(seed)
		for name, cfg := range modeConfigs() {
			diffRun(t, name, cfg, prog, trial%2 == 0, nil)
		}
	}
}

// TestSchedulerDifferentialTinyConfig repeats the differential on a cramped
// core: tiny ROB/IQ/LSQ and branch-tag budget exercise every structural
// stall, and Block-policy shadow structures exercise the blocked-issue
// retry path (entries that must be re-attempted every cycle, not woken).
func TestSchedulerDifferentialTinyConfig(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		prog := randomProgram(int64(trial)*31_337 + 7)
		for _, policy := range []shadow.OnFull{shadow.Drop, shadow.Block} {
			diffRun(t, "tiny", tinyShadowConfig(policy), prog, false, nil)
		}
	}
}

// tinyShadowConfig is a cramped WFC core whose shadow structures apply policy
// when full.
func tinyShadowConfig(policy shadow.OnFull) pipeline.Config {
	cfg := core.WFC().Pipeline
	cfg.ROBSize = 12
	cfg.IQSize = 6
	cfg.LDQSize = 3
	cfg.STQSize = 3
	cfg.MaxBranchTags = 3
	cfg.ShadowD = shadow.Policy{Name: "shadow-dcache", Entries: 2, WhenFull: policy}
	cfg.ShadowI = shadow.Policy{Name: "shadow-icache", Entries: 4, WhenFull: policy}
	cfg.ShadowDTLB = shadow.Policy{Name: "shadow-dtlb", Entries: 2, WhenFull: policy}
	cfg.ShadowITLB = shadow.Policy{Name: "shadow-itlb", Entries: 2, WhenFull: policy}
	return cfg.Normalize()
}

// storeWaitProgram chases a pointer list laid out one node per page, so
// nearly every chase misses the caches and TLB, and stores to an address
// derived from each chased pointer. Ten independent younger loads follow
// every store and must wait for its address (no memory-dependence
// speculation): eight read the doublewords of its line, one of which
// aliases the store and forwards, and two read elsewhere. This is the event
// scheduler's store-parked-load path: the loads park on the store and are
// woken when its address resolves.
func storeWaitProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder()
	const chain, nodes = 0x10_0000, 48
	const array = 0x2_0000
	b.Region(chain, nodes*4096, false)
	b.Region(array, 4096, false)
	perm := rng.Perm(nodes)
	for i, n := range perm {
		next := uint64(chain + perm[(i+1)%nodes]*4096)
		// The low bits pick the store's doubleword; the chase strips them.
		b.Data(chain+uint64(n)*4096, int64(next|uint64(rng.Intn(8))<<3))
	}
	b.Movi(isa.S10, int64(chain+perm[0]*4096))
	b.Movi(isa.S11, array)
	b.Movi(isa.S5, 0) // iteration counter
	b.Movi(isa.S0, 1)
	b.Label("loop")
	b.Load(isa.T0, isa.S10, 0)
	b.Andi(isa.T1, isa.T0, 0x38)
	b.Xor(isa.S10, isa.T0, isa.T1)
	b.Add(isa.T1, isa.S11, isa.T1)
	b.Store(isa.S0, isa.T1, 0)
	for k, r := range []isa.Reg{isa.T2, isa.T3, isa.T4, isa.T5, isa.A0, isa.A1, isa.A2, isa.A3} {
		b.Load(r, isa.S11, int64(k)*8)
	}
	b.Load(isa.A4, isa.S11, 512)
	b.Load(isa.A5, isa.S11, 1024)
	for _, r := range []isa.Reg{isa.T2, isa.T3, isa.T4, isa.T5, isa.A0, isa.A1, isa.A2, isa.A3, isa.A4, isa.A5} {
		b.Add(isa.S0, isa.S0, r)
	}
	b.Addi(isa.S5, isa.S5, 1)
	b.Slti(isa.T6, isa.S5, 2*nodes)
	b.Bne(isa.T6, isa.Zero, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestSchedulerDifferentialStoreWait pins event-vs-scan equivalence on loads
// blocked by an older store whose address is unresolved: the event
// scheduler parks them on the store and wakes them when the store issues,
// which must reach them in the same cycle the reference scan's every-cycle
// retry would. It covers all three modes, the cramped core under both
// shadow policies (Block makes the store itself retry) and Threads=2.
func TestSchedulerDifferentialStoreWait(t *testing.T) {
	for trial := 0; trial < 2; trial++ {
		prog := storeWaitProgram(int64(trial)*7 + 3)
		for name, cfg := range modeConfigs() {
			diffRun(t, "storewait/"+name, cfg, prog, trial%2 == 0, nil)
			cfg.Threads = 2
			diffRun(t, "storewait/smt/"+name, cfg, prog, false, nil)
		}
		for _, policy := range []shadow.OnFull{shadow.Drop, shadow.Block} {
			diffRun(t, "storewait/tiny", tinyShadowConfig(policy), prog, false, nil)
		}
	}
	// Sanity: the stores' addresses arrive late and the aliasing loads
	// forward from them.
	cpu := pipeline.New(core.WFC().Pipeline, storeWaitProgram(3))
	st := cpu.Run()
	if st.StoreForwards < 32 || st.DReadMisses < 48 {
		t.Fatalf("store-wait kernel does not wait on stores: %d forwards, %d load misses", st.StoreForwards, st.DReadMisses)
	}
}

// TestSchedulerDifferentialSMT repeats the random, squash-heavy and
// cross-thread attack corpora on a two-thread core, whose threads share the
// issue ports and interleave their completion wheels.
func TestSchedulerDifferentialSMT(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		random := randomProgram(int64(trial)*4099 + 11)
		squash := squashHeavyProgram(int64(trial)*613 + 2)
		for name, cfg := range modeConfigs() {
			cfg.Threads = 2
			diffRun(t, "smt/random/"+name, cfg, random, trial%2 == 0, nil)
			diffRun(t, "smt/squash/"+name, cfg, squash, false, nil)
		}
	}
	for _, a := range attacks.All() {
		if a.Threads < 2 {
			continue
		}
		prog, err := a.Build(a.Secret)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for name, cfg := range modeConfigs() {
			cfg.Threads = a.Threads
			diffRun(t, a.Name+"/"+name, cfg, prog, false, a.Setup)
		}
	}
}

// squashHeavyProgram loops over pseudo-random data and branches on each
// loaded value's low bit: roughly half the iterations mispredict, so the
// run is dominated by selective squashes draining the scheduler queues.
func squashHeavyProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder()
	const base = 0x2_0000
	b.Region(base, 4096, false)
	for i := 0; i < 64; i++ {
		b.Data(base+uint64(i)*8, rng.Int63())
	}
	b.Movi(isa.S10, base)
	b.Movi(isa.S11, 0) // index
	b.Movi(isa.S0, 0)  // taken-path accumulator
	b.Label("loop")
	b.Shli(isa.T0, isa.S11, 3)
	b.Add(isa.T0, isa.S10, isa.T0)
	b.Load(isa.T1, isa.T0, 0)
	b.Andi(isa.T2, isa.T1, 1)
	b.Beq(isa.T2, isa.Zero, "even")
	// Odd path: dependent work the squash must annul cleanly.
	b.Mul(isa.S0, isa.S0, isa.T1)
	b.Addi(isa.S0, isa.S0, 3)
	b.Load(isa.T3, isa.T0, 0)
	b.Add(isa.S0, isa.S0, isa.T3)
	b.Jmp("next")
	b.Label("even")
	b.Xor(isa.S0, isa.S0, isa.T1)
	b.Store(isa.S0, isa.T0, 0)
	b.Label("next")
	b.Addi(isa.S11, isa.S11, 1)
	b.Slti(isa.T6, isa.S11, 64)
	b.Bne(isa.T6, isa.Zero, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestSchedulerDifferentialSquashHeavy stresses squash draining: a
// mispredict-dominated run must drain the ready queue, the wakeup rows and
// the completion wheel identically under both schedulers.
func TestSchedulerDifferentialSquashHeavy(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		prog := squashHeavyProgram(int64(trial)*997 + 1)
		for name, cfg := range modeConfigs() {
			diffRun(t, "squash/"+name, cfg, prog, false, nil)
		}
	}
	// Sanity: the workload actually squashes heavily.
	cpu := pipeline.New(core.WFC().Pipeline, squashHeavyProgram(1))
	st := cpu.Run()
	if st.Mispredicts < 20 || st.Squashed < 100 {
		t.Fatalf("squash-heavy kernel is not squash-heavy: %d mispredicts, %d squashed", st.Mispredicts, st.Squashed)
	}
}

// faultHeavyProgram raises repeated permission faults: each round performs
// speculative work, reads a kernel page (trapping at commit), and resumes
// in the trap handler, which loops back until enough traps accumulated.
func faultHeavyProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder()
	const user = 0x2_0000
	const kern = 0x3_0000
	b.Region(user, 4096, false)
	b.Region(kern, 4096, true)
	for i := 0; i < 16; i++ {
		b.Data(user+uint64(i)*8, rng.Int63n(1<<20))
		b.KernelData(kern+uint64(i)*8, rng.Int63n(1<<20))
	}
	b.SetTrapHandler("handler")
	b.Movi(isa.S10, user)
	b.Movi(isa.S9, kern)
	b.Movi(isa.S5, 0) // trap counter
	b.Movi(isa.S0, 1)
	b.Label("round")
	// Some work before the fault, so the trap squashes a busy window.
	b.Load(isa.T0, isa.S10, int64(rng.Intn(16))*8)
	b.Add(isa.S0, isa.S0, isa.T0)
	b.Andi(isa.T1, isa.T0, 0x78)
	b.Add(isa.T1, isa.S10, isa.T1)
	b.Load(isa.T2, isa.T1, 0)
	// The faulting kernel read plus transient dependent work (squashed with
	// the trap, leaving shadow state to annul under SafeSpec).
	b.Load(isa.T3, isa.S9, int64(rng.Intn(16))*8)
	b.Add(isa.T4, isa.T3, isa.T2)
	b.Load(isa.T5, isa.S10, 0)
	b.Store(isa.T4, isa.S10, 128)
	b.Halt() // unreachable: the kernel read always traps first
	b.Label("handler")
	b.Addi(isa.S5, isa.S5, 1)
	b.Slti(isa.T6, isa.S5, 12)
	b.Bne(isa.T6, isa.Zero, "round")
	b.Halt()
	return b.MustBuild()
}

// TestSchedulerDifferentialFaultHeavy stresses trap flushes (squashAll):
// every round ends in a precise fault that annuls the entire window.
func TestSchedulerDifferentialFaultHeavy(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		prog := faultHeavyProgram(int64(trial)*211 + 5)
		for name, cfg := range modeConfigs() {
			diffRun(t, "fault/"+name, cfg, prog, false, nil)
		}
	}
	cpu := pipeline.New(core.WFC().Pipeline, faultHeavyProgram(5))
	st := cpu.Run()
	if st.Traps < 10 {
		t.Fatalf("fault-heavy kernel is not fault-heavy: %d traps", st.Traps)
	}
}

// TestSchedulerResetAcrossGeometries: rebinding one CPU across configs
// with different window geometry (which resizes the scheduler bitmaps and
// wakeup rows, including ROB-size changes that keep the same bitmap word
// count) must reproduce a fresh simulator's statistics exactly.
func TestSchedulerResetAcrossGeometries(t *testing.T) {
	prog := randomProgram(42)
	sizes := []int{224, 200, 12, 64, 224}
	var reused *pipeline.CPU
	for _, rob := range sizes {
		cfg := core.WFC().Pipeline
		cfg.ROBSize = rob
		if rob < 64 {
			cfg.IQSize, cfg.LDQSize, cfg.STQSize, cfg.MaxBranchTags = rob/2, rob/4, rob/4, 3
		}
		cfg = cfg.Normalize()
		if reused == nil {
			reused = pipeline.New(cfg, prog)
		} else {
			reused.Reset(cfg, prog, pipeline.BuildMemory(prog))
		}
		got := reused.Run()
		want := pipeline.New(cfg, prog).Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ROB=%d: reused CPU diverged from fresh (cycles %d vs %d)", rob, got.Cycles, want.Cycles)
		}
	}
}

// TestSchedulerDifferentialAttackKernels pins equivalence on the paper's
// attack programs — the adversarial corner of the input space (poisoned
// predictors, fault-deferred reads, shadow-structure contention) — across
// all three modes.
func TestSchedulerDifferentialAttackKernels(t *testing.T) {
	for _, a := range attacks.All() {
		prog, err := a.Build(a.Secret)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for name, cfg := range modeConfigs() {
			var setup func(*pipeline.CPU, *isa.Program)
			if a.Setup != nil {
				setup = a.Setup
			}
			diffRun(t, a.Name+"/"+name, cfg, prog, false, setup)
		}
	}
}
