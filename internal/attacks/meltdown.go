package attacks

import (
	"safespec/internal/asm"
	"safespec/internal/isa"
)

// Meltdown returns the fault-deferred kernel-read attack (paper Section
// II-B4). The attacker loads directly from a kernel-mapped page; the
// permission check is only enforced when the load reaches commit, but —
// on Meltdown-vulnerable hardware (Config.FaultsReturnData) — the loaded
// value is forwarded to dependents speculatively. A dependent load plants
// the value in the D-cache before the fault squashes the window; the trap
// handler then runs the Flush+Reload receiver.
//
// No branch misprediction is involved, so SafeSpec-WFB does NOT stop this
// attack: the faulting load has no unresolved older branches, its shadow
// state moves to the committed cache at writeback, and the probe finds it.
// SafeSpec-WFC keeps the state in the shadow until commit — which never
// happens, because the fault annuls it (Table III).
func Meltdown() Attack {
	return Attack{
		Name:         "meltdown",
		Secret:       DefaultSecret,
		Build:        meltdownProgram,
		MinGap:       50,
		FastIsSignal: true,
	}
}

var meltdownProgram = memoized(buildMeltdown)

func buildMeltdown(secret int64) (*isa.Program, error) {
	b := asm.NewBuilder()
	emitResultsRegion(b)
	b.KernelData(SecretVA, secret)

	const (
		rK    = isa.T0
		rTmp  = isa.T1
		rAddr = isa.T2
		rD    = isa.S0
	)

	// Warm the kernel page's *PTE line* by touching an adjacent user page:
	// leaf PTEs of 8 neighbouring pages share one cache line, so walking
	// the user page at SecretVA+PageSize caches the PTE the kernel page's
	// walk will read. The kernel load then completes in ~one memory
	// latency instead of ~two, which matters for the race below.
	b.Region(SecretVA+4096, 4096, false)
	b.Movi(rAddr, int64(SecretVA+4096))
	b.Load(rD, rAddr, 0)

	// A two-deep flushed pointer chain plus a dependent ALU chain ahead of
	// the kernel load delays its commit (and therefore the fault) long
	// enough that the dependent probe access below has issued — and
	// planted its cache line — before the trap flushes the pipeline.
	b.Data(ScratchBase, int64(ScratchBase+256))
	b.Data(ScratchBase+256, 1)
	b.Movi(rAddr, int64(ScratchBase))
	b.Load(rD, rAddr, 0) // warm the chain once
	b.Load(rD, rD, 0)
	emitFlushChain(b, rAddr, ScratchBase, 2)
	b.Fence()
	b.Movi(rD, int64(ScratchBase))
	b.Load(rD, rD, 0) // two serialized cold misses
	b.Load(rD, rD, 0)
	for i := 0; i < 16; i++ {
		b.Addi(rD, rD, 1) // serial chain: commit of everything younger waits
	}

	// The illegal access and its dependent transmit.
	b.Movi(rAddr, int64(SecretVA))
	b.Load(rK, rAddr, 0) // kernel read: faults at commit, forwards data now
	b.Shli(rK, rK, 9)
	b.Addi(rK, rK, int64(ProbeBase))
	b.Load(rTmp, rK, 0) // secret-dependent probe access

	// Fall-through (in case the fault is suppressed) joins the handler.
	b.Jmp("recover")

	b.SetTrapHandler("recover")
	b.Label("recover")
	emitProbeLoads(b, ProbeBase, ProbeStride)
	b.Halt()

	return b.Build()
}
