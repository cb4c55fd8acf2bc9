// Package attacks implements proof-of-concept speculation attacks on the
// simulated CPU, mirroring the security evaluation of the paper (Tables III
// and IV): Spectre variant 1 (bounds-check bypass), Spectre variant 2
// (branch target injection), Meltdown (fault-deferred kernel read), the
// paper's new I-cache variant, I-TLB and D-TLB variants, and the transient
// speculation attack (TSA) through the shadow structures themselves.
//
// Every attack is a self-contained program in the simulator's ISA, built
// with internal/asm, that:
//
//  1. trains the predictor (or the host poisons the BTB, as the paper's
//     threat model allows),
//  2. triggers a speculative "gadget" that touches a secret-dependent
//     microarchitectural location, and
//  3. probes the relevant structure with rdcycle timing, storing the
//     measured latencies into a results array in memory.
//
// The host then reads the results array and decides — exactly like a real
// attacker — which probe slot was uniquely fast. An attack "leaks" if the
// recovered value matches the planted secret.
package attacks

import (
	"fmt"

	"safespec/internal/asm"
	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/mem"
	"safespec/internal/pipeline"
	"safespec/internal/workloads"
)

// Memory layout shared by the attack programs (virtual addresses; each
// lives on its own page or further apart).
const (
	// Array1Base is the victim's bounds-checked array.
	Array1Base uint64 = 0x0001_0000
	// BoundChainBase holds the pointer chain whose final cell is the bound
	// (flushing the chain creates a multi-miss speculation window).
	BoundChainBase uint64 = 0x0002_0000
	// SecretVA is where the planted secret lives (user page for Spectre,
	// kernel page for Meltdown).
	SecretVA uint64 = 0x0003_0000
	// ProbeBase is the Flush+Reload probe array (one slot per candidate
	// secret value, ProbeStride bytes apart).
	ProbeBase uint64 = 0x0004_0000
	// ResultsBase is where measured probe latencies are stored.
	ResultsBase uint64 = 0x0006_0000
	// ScratchBase holds attack flags (attack mode, condition values).
	ScratchBase uint64 = 0x0007_0000
	// FnTableBase is the jump table for the I-cache/I-TLB variants.
	FnTableBase uint64 = 0x0008_0000
	// PageProbeBase is the D-TLB probe region (Slots pages, spaced
	// PageGap pages apart so their leaf PTEs sit on distinct cache lines).
	PageProbeBase uint64 = 0x0100_0000
)

// Slots is the number of candidate secret values each attack probes.
// Secrets are 4-bit (1..15; zero is reserved as the "benign" value so
// training never touches a secret-dependent location).
const Slots = 16

// ProbeStride separates probe slots (8 cache lines).
const ProbeStride = 512

// PageGap spaces D-TLB probe pages so each page's leaf PTE occupies a
// distinct cache line (8 PTEs of 8 bytes share a 64-byte line).
const PageGap = 8

// DefaultSecret is the value planted by all single-value attacks.
const DefaultSecret = 11

// Attack describes one proof-of-concept.
type Attack struct {
	// Name identifies the attack ("spectre-v1", ...).
	Name string
	// Secret is the planted value in 1..15.
	Secret int64
	// Build assembles the program.
	Build func(secret int64) (*isa.Program, error)
	// Setup, if non-nil, runs against the CPU before execution (Spectre v2
	// uses it to poison the BTB, per the paper's threat model).
	Setup func(cpu *pipeline.CPU, prog *isa.Program)
	// Threads is the hardware-thread count the attack requires (0 or 1 for
	// the single-threaded attacks; the SMT attacks need a sibling context).
	// Execute applies it to the configuration under test.
	Threads int
	// MinGap is the timing gap (cycles) required between the fastest and
	// second-fastest probe slot for the attacker to call it signal.
	MinGap uint64
	// FastIsSignal selects the decision rule: true means the uniquely
	// fastest slot reveals the secret (Flush+Reload style); false means
	// the uniquely slowest slot does (occupancy/eviction style).
	FastIsSignal bool
}

// Outcome is the result of running one attack under one configuration.
type Outcome struct {
	// Times are the probe latencies per slot (index = candidate value).
	Times []uint64
	// Recovered is the attacker's guess, or -1 if no slot stood out.
	Recovered int64
	// Secret is the planted value.
	Secret int64
	// Leaked reports Recovered == Secret.
	Leaked bool
	// Cycles is the total run length.
	Cycles uint64
}

// Execute builds, runs and scores an attack under cfg. The simulator comes
// from core's shared pool and goes back to it once the results array has
// been read.
func Execute(a Attack, cfg core.Config) (Outcome, error) {
	prog, err := a.Build(a.Secret)
	if err != nil {
		return Outcome{}, fmt.Errorf("attacks: building %s: %w", a.Name, err)
	}
	if a.Threads > 1 {
		// SMT attacks run against the same protection config with the
		// sibling context enabled; everything else about the cell is
		// unchanged so Table III/IV rows stay comparable.
		cfg.Pipeline.Threads = a.Threads
	}
	sim := core.Acquire(cfg, prog)
	if a.Setup != nil {
		a.Setup(sim.CPU(), prog)
	}
	cycles := sim.Run().Cycles
	times, err := readResults(sim, Slots)
	sim.Release()
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Times: times, Secret: a.Secret, Cycles: cycles}
	out.Recovered = decide(times, a.MinGap, a.FastIsSignal)
	out.Leaked = out.Recovered == a.Secret
	return out, nil
}

// readResults copies the first n words of the results array out of the
// simulator's memory.
func readResults(sim *core.Simulator, n int) ([]uint64, error) {
	times := make([]uint64, n)
	for i := range times {
		v, fault := sim.CPU().Mem().Read(ResultsBase+uint64(i)*8, true)
		if fault != mem.FaultNone {
			return nil, fmt.Errorf("attacks: reading results[%d]: %v", i, fault)
		}
		times[i] = uint64(v)
	}
	return times, nil
}

// memoized wraps a per-secret builder in its own workloads.Memo. Each
// built-in attack's Build is one of these, so a caller-supplied Build —
// even under a reused attack name — never aliases a built-in program, and
// the stable pointer keys the memory image every pooled simulator shares.
func memoized(build func(secret int64) (*isa.Program, error)) func(secret int64) (*isa.Program, error) {
	m := new(workloads.Memo[int64])
	return func(secret int64) (*isa.Program, error) { return m.Get(secret, build) }
}

// decide picks the uniquely fastest (or slowest) slot among candidates
// 1..Slots-1, requiring a minGap separation from the runner-up. Slot 0 is
// the reserved benign value and never considered.
func decide(times []uint64, minGap uint64, fastIsSignal bool) int64 {
	best, second := -1, -1
	for i := 1; i < len(times); i++ {
		better := func(a, b uint64) bool {
			if fastIsSignal {
				return a < b
			}
			return a > b
		}
		switch {
		case best < 0 || better(times[i], times[best]):
			second = best
			best = i
		case second < 0 || better(times[i], times[second]):
			second = i
		}
	}
	if best < 0 || second < 0 {
		return -1
	}
	var gap uint64
	if fastIsSignal {
		gap = times[second] - times[best]
	} else {
		gap = times[best] - times[second]
	}
	if gap < minGap {
		return -1
	}
	return int64(best)
}

// emitBoundChain emits a depth-long dependent pointer chain ending in the
// value stored at the final cell; dst receives that value. Cells live on
// distinct cache lines starting at base. The data image links the chain;
// the final cell's initial value is finalVal.
func emitBoundChain(b *asm.Builder, dst isa.Reg, base uint64, depth int, finalVal int64) {
	for i := 0; i < depth-1; i++ {
		b.Data(base+uint64(i)*256, int64(base+uint64(i+1)*256))
	}
	b.Data(base+uint64(depth-1)*256, finalVal)
	b.Movi(dst, int64(base))
	for i := 0; i < depth; i++ {
		b.Load(dst, dst, 0)
	}
}

// emitFlushChain flushes every cell of a chain emitted by emitBoundChain.
func emitFlushChain(b *asm.Builder, tmp isa.Reg, base uint64, depth int) {
	for i := 0; i < depth; i++ {
		b.Movi(tmp, int64(base+uint64(i)*256))
		b.Clflush(tmp, 0)
	}
}

// emitProbeLoads emits an unrolled Flush+Reload receiver: for each slot it
// measures the latency of one load from base + slot*stride and stores it to
// ResultsBase[slot].
func emitProbeLoads(b *asm.Builder, base uint64, stride uint64) {
	const (
		t1  = isa.T4
		t2  = isa.T5
		tmp = isa.T6
		adr = isa.S11
	)
	for i := 0; i < Slots; i++ {
		b.RdCycle(t1)
		b.Movi(adr, int64(base+uint64(i)*stride))
		b.Load(tmp, adr, 0)
		b.Add(tmp, tmp, tmp) // consume the value
		b.RdCycle(t2)
		b.Sub(t2, t2, t1)
		b.Movi(adr, int64(ResultsBase+uint64(i)*8))
		b.Store(t2, adr, 0)
	}
}

// emitProbeCalls emits an unrolled instruction-side receiver: for each slot
// it measures the latency of calling funcLabel(slot) and stores it.
func emitProbeCalls(b *asm.Builder, funcLabel func(int) string) {
	const (
		t1  = isa.T4
		t2  = isa.T5
		adr = isa.S11
	)
	for i := 0; i < Slots; i++ {
		b.RdCycle(t1)
		b.Call(funcLabel(i))
		b.RdCycle(t2)
		b.Sub(t2, t2, t1)
		b.Movi(adr, int64(ResultsBase+uint64(i)*8))
		b.Store(t2, adr, 0)
	}
}

// emitResultsRegion declares the standard probe/results regions.
func emitResultsRegion(b *asm.Builder) {
	b.Region(ProbeBase, Slots*ProbeStride+64, false)
	b.Region(ResultsBase, Slots*8+64, false)
	b.Region(ScratchBase, 4096, false)
}

// All returns the attacks in the order of Tables III and IV, with the SMT
// cross-thread variant appended.
func All() []Attack {
	return []Attack{
		Meltdown(),
		SpectreV1(),
		SpectreV2(),
		ICacheVariant(),
		ITLBVariant(),
		DTLBVariant(),
		SMTBTBV2(),
	}
}
