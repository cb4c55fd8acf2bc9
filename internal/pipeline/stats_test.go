package pipeline_test

import (
	"testing"

	"safespec/internal/asm"
	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/pipeline"
)

// retirementCounters lists the eight counters each hardware thread books for
// itself, in ThreadStats order.
var retirementCounters = [...]string{
	"Committed", "CommittedLoads", "CommittedStores", "Dispatched",
	"Squashed", "Mispredicts", "Faults", "Traps",
}

func threadCounters(s pipeline.ThreadStats) [8]uint64 {
	return [8]uint64{s.Committed, s.CommittedLoads, s.CommittedStores, s.Dispatched,
		s.Squashed, s.Mispredicts, s.Faults, s.Traps}
}

func totalCounters(s *pipeline.Stats) [8]uint64 {
	return [8]uint64{s.Committed, s.CommittedLoads, s.CommittedStores, s.Dispatched,
		s.Squashed, s.Mispredicts, s.Faults, s.Traps}
}

// retirementProgram books every retirement counter: each round commits a
// load and a store, then reads a kernel page, which faults at commit and
// traps to a handler whose loop branch mispredicts on the way out.
func retirementProgram() *isa.Program {
	b := asm.NewBuilder()
	const user, kern = 0x2_0000, 0x3_0000
	b.Region(user, 4096, false)
	b.Region(kern, 4096, true)
	b.KernelData(kern, 7)
	b.SetTrapHandler("handler")
	b.Movi(isa.S10, user)
	b.Movi(isa.S9, kern)
	b.Movi(isa.S5, 0) // trap counter
	b.Label("round")
	b.Load(isa.T0, isa.S10, 0)
	b.Addi(isa.T0, isa.T0, 1)
	b.Store(isa.T0, isa.S10, 0)
	b.Load(isa.T1, isa.S9, 0)
	b.Halt() // unreachable: the kernel read traps first
	b.Label("handler")
	b.Addi(isa.S5, isa.S5, 1)
	b.Slti(isa.T6, isa.S5, 8)
	b.Bne(isa.T6, isa.Zero, "round")
	b.Halt()
	return b.MustBuild()
}

// TestPerThreadSumsToTotals runs retirementProgram under every mode on one and two hardware threads. Under SMT each
// core-wide retirement counter must equal the sum of its per-thread
// copies; a single-thread run must carry no per-thread breakdown, so its
// serialized Stats (and the result-cache entries built from them) keep
// their form.
func TestPerThreadSumsToTotals(t *testing.T) {
	prog := retirementProgram()
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeWFB, core.ModeWFC} {
		for _, threads := range []int{1, 2} {
			cfg := core.DefaultConfig(mode).Pipeline
			cfg.Threads = threads
			st := pipeline.New(cfg, prog).Run()
			total := totalCounters(st)
			for i, name := range retirementCounters {
				if total[i] == 0 {
					t.Errorf("%v threads=%d: %s is 0; the program must exercise every counter", mode, threads, name)
				}
			}
			if threads == 1 {
				if st.PerThread != nil {
					t.Errorf("%v threads=1: PerThread = %v, want nil", mode, st.PerThread)
				}
				continue
			}
			if len(st.PerThread) != threads {
				t.Fatalf("%v threads=%d: %d PerThread entries", mode, threads, len(st.PerThread))
			}
			var sum [8]uint64
			for _, ts := range st.PerThread {
				for i, v := range threadCounters(ts) {
					sum[i] += v
				}
			}
			for i, name := range retirementCounters {
				if sum[i] != total[i] {
					t.Errorf("%v threads=%d: %s = %d, per-thread sum %d", mode, threads, name, total[i], sum[i])
				}
			}
		}
	}
}
