package attacks

import (
	"safespec/internal/asm"
	"safespec/internal/isa"
	"safespec/internal/mem"
)

// DTLBVariant returns the data-TLB covert-channel variant the paper
// conjectures in Section IV-A: the gadget's speculative, secret-dependent
// load targets a *page* rather than a line, installing a dTLB translation
// (and, through the page walker, PTE cache lines). The receiver times one
// load per candidate page: the page whose translation is already present
// skips the walk (and its walk's PTE lines are warm), so it stands out.
//
// Candidate pages are spaced PageGap pages apart so each page's leaf PTE
// occupies a distinct cache line — otherwise probing page i would warm the
// PTEs of its neighbours.
func DTLBVariant() Attack {
	return Attack{
		Name:         "spectre-dtlb",
		Secret:       DefaultSecret,
		Build:        dtlbProgram,
		MinGap:       30,
		FastIsSignal: true,
	}
}

var dtlbProgram = memoized(buildDTLB)

func buildDTLB(secret int64) (*isa.Program, error) {
	b := asm.NewBuilder()
	emitResultsRegion(b)
	b.Region(BoundChainBase, 4096, false)
	b.Region(SecretVA, 4096, false)
	b.Region(PageProbeBase, uint64(Slots*PageGap+1)*mem.PageSize, false)
	b.Data(SecretVA, secret)

	const (
		rGate = isa.A0
		rBnd  = isa.T0
		rSec  = isa.T1
		rAM   = isa.T2
		rAdr  = isa.T3
		rIter = isa.S0
		rLim  = isa.S1
		rTmp  = isa.S2
	)

	b.Data(ScratchBase, 0) // attackMode

	// Training: gate=0 passes the bound; attackMode=0 sends the gadget's
	// page access to page 0 (benign).
	b.Movi(rIter, 0)
	b.Movi(rLim, 8)
	b.Label("train")
	b.Movi(rGate, 0)
	b.Call("victim")
	b.Addi(rIter, rIter, 1)
	b.Blt(rIter, rLim, "train")

	// Arm and fire.
	b.Movi(rAdr, int64(ScratchBase))
	b.Movi(rTmp, 1)
	b.Store(rTmp, rAdr, 0)
	emitFlushChain(b, rTmp, BoundChainBase, 2)
	b.Fence()
	b.Movi(rGate, 1)
	b.Call("victim")
	b.Fence()

	// Receive: one timed load per candidate page. The probe pages' data
	// lines are all cold, so the differentiator is the translation path.
	emitProbeLoads(b, PageProbeBase, PageGap*mem.PageSize)
	b.Halt()

	// Victim gadget: if (gate < bound) touch page[secret * attackMode].
	b.Label("victim")
	emitBoundChain(b, rBnd, BoundChainBase, 2, 1)
	b.Bge(rGate, rBnd, "victim_out")
	b.Movi(rAdr, int64(SecretVA))
	b.Load(rSec, rAdr, 0)
	b.Movi(rAdr, int64(ScratchBase))
	b.Load(rAM, rAdr, 0)
	b.Mul(rSec, rSec, rAM)
	b.Shli(rSec, rSec, 12+3) // * PageGap(8) * PageSize(4096)
	b.Movi(rAdr, int64(PageProbeBase))
	b.Add(rAdr, rAdr, rSec)
	b.Load(rTmp, rAdr, 0) // secret-dependent page touch
	b.Label("victim_out")
	b.Ret()

	return b.Build()
}
