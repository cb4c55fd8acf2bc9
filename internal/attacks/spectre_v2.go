package attacks

import (
	"safespec/internal/asm"
	"safespec/internal/isa"
	"safespec/internal/pipeline"
)

// SpectreV2 returns the branch-target-injection attack (paper Section
// II-B3). The victim makes an indirect call through a function pointer
// fetched from memory; the attacker has poisoned the BTB entry for that
// call site to point at a gadget that performs a secret-dependent probe
// access. Flushing the pointer chain delays resolution, so the CPU
// speculatively executes the gadget at the predicted (poisoned) target
// before redirecting to the real, benign target.
//
// Per the paper's threat model ("attackers can arbitrarily control the
// state of the branch predictor"), the poisoning is done by the host
// through Predictor().PoisonBTB — the same effect an attacker achieves on
// real hardware by executing aliasing branches (bpred's unit tests
// demonstrate the aliasing mechanism itself).
func SpectreV2() Attack {
	return Attack{
		Name:         "spectre-v2",
		Secret:       DefaultSecret,
		Build:        spectreV2Program,
		Setup:        setupSpectreV2,
		MinGap:       50,
		FastIsSignal: true,
	}
}

var spectreV2Program = memoized(buildSpectreV2)

func buildSpectreV2(secret int64) (*isa.Program, error) {
	b := asm.NewBuilder()
	emitResultsRegion(b)
	b.Region(BoundChainBase, 4096, false)
	b.Region(SecretVA, 4096, false)
	b.Data(SecretVA, secret)

	const (
		rFn   = isa.T0
		rVal  = isa.T1
		rTmp  = isa.T2
		rAddr = isa.T3
	)

	// Warm the secret so the gadget's dependent access fits comfortably in
	// the speculation window. In the real variant-2 setting the secret is
	// the victim's own (hot) data; here a store to the secret's line plays
	// that role without ever architecturally reading it.
	b.Movi(rAddr, int64(SecretVA+8))
	b.Movi(rTmp, 0)
	b.Store(rTmp, rAddr, 0)

	// The function-pointer chain: two dependent cells, final value is the
	// benign target's instruction index (filled via DataLabel below).
	b.Data(BoundChainBase, int64(BoundChainBase+256))
	b.DataLabel(BoundChainBase+256, "benign")

	// Flush the chain, then make the victim's indirect call: the target
	// resolves only after two serialized misses while speculation runs at
	// the BTB-predicted (poisoned) target.
	emitFlushChain(b, rTmp, BoundChainBase, 2)
	b.Fence()
	b.Movi(rFn, int64(BoundChainBase))
	b.Load(rFn, rFn, 0)
	b.Load(rFn, rFn, 0)
	b.Label("victim_call")
	b.Calli(rFn, 0) // BTB-predicted; actual target is "benign"
	b.Fence()

	emitProbeLoads(b, ProbeBase, ProbeStride)
	b.Halt()

	// The legitimate call target.
	b.Label("benign")
	b.Addi(isa.T6, isa.T6, 1)
	b.Ret()

	// The gadget the attacker redirects speculation into. It is never
	// called architecturally.
	b.Label("gadget")
	b.Movi(rAddr, int64(SecretVA))
	b.Load(rVal, rAddr, 0)
	b.Shli(rVal, rVal, 9)
	b.Addi(rVal, rVal, int64(ProbeBase))
	b.Load(rTmp, rVal, 0)
	b.Ret()

	return b.Build()
}

func setupSpectreV2(cpu *pipeline.CPU, prog *isa.Program) {
	callPC := prog.Symbols["victim_call"]
	gadget := prog.Symbols["gadget"]
	cpu.Predictor().PoisonBTB(callPC, gadget)
}
