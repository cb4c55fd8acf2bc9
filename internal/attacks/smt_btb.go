package attacks

import (
	"safespec/internal/asm"
	"safespec/internal/isa"
	"safespec/internal/workloads"
)

// SMTBTBV2 returns the cross-thread branch-target-injection attack: Spectre
// v2 where the training runs on a sibling SMT hardware thread instead of
// being planted by the host. The BTB is shared between hardware threads
// (only its history, RAS and stats are per-thread views), so an attacker
// context that executes the victim's indirect-call instruction with its own
// register pointing at the gadget installs a BTB entry the victim's fetch
// will consume.
//
// Thread 0 is the victim: it delays (giving the attacker time to train),
// flushes its function-pointer chain, and makes the indirect call whose
// architectural target is benign. Speculation runs at the BTB-predicted
// (attacker-installed) gadget, which loads the secret through a per-thread
// pointer register and touches a secret-indexed probe line. Thread 1 is the
// attacker: it points that same register at a zeroed scratch word — so its
// own architectural gadget executions only ever touch probe slot 0, the
// reserved benign slot the decision rule ignores — and repeatedly jumps to
// the victim's call site to train the shared BTB, then halts.
//
// Under SafeSpec the victim's transient probe fill lands in the victim
// thread's private shadow d-cache and is annulled at the squash, so the
// cross-thread injection channel closes exactly like same-thread Spectre
// v2 (Table III), while baseline SMT leaks.
func SMTBTBV2() Attack {
	return Attack{
		Name:         "smt-btb-v2",
		Secret:       DefaultSecret,
		Build:        smtBTBV2Program,
		Threads:      2,
		MinGap:       50,
		FastIsSignal: true,
	}
}

// SMTBenchName is the sweep-benchmark registration of the cross-thread
// attack kernel: (smt-btb-v2, mode) cells run through the ordinary matrix,
// result-cache and grid machinery alongside performance cells.
const SMTBenchName = "smt-btb-v2"

func init() {
	workloads.Register(SMTBenchName, func(threads int) (*isa.Program, error) {
		return buildSMTBTBV2(DefaultSecret)
	})
}

var smtBTBV2Program = memoized(buildSMTBTBV2)

func buildSMTBTBV2(secret int64) (*isa.Program, error) {
	b := asm.NewBuilder()
	emitResultsRegion(b)
	b.Region(BoundChainBase, 4096, false)
	b.Region(SecretVA, 4096, false)
	b.Data(SecretVA, secret)
	// FnTableBase[0] carries the gadget's instruction index so the attacker
	// can load it into its call-target register (labels cannot be Movi
	// immediates).
	b.Region(FnTableBase, 4096, false)
	b.DataLabel(FnTableBase, "gadget")

	const (
		rFn   = isa.T0
		rVal  = isa.T1
		rTmp  = isa.T2
		rAddr = isa.T3
		rCnt  = isa.A0
		rLim  = isa.A1
		rSec  = isa.S0 // per-thread secret pointer read by the gadget
		rAtk  = isa.S1 // non-zero on the attacker thread
	)

	// ---- Thread 0: the victim ----
	// Warm the secret's line (without architecturally reading the secret) so
	// the gadget's dependent access fits in the speculation window, and point
	// the gadget's pointer register at the real secret.
	b.Movi(rAddr, int64(SecretVA+8))
	b.Movi(rTmp, 0)
	b.Store(rTmp, rAddr, 0)
	b.Movi(rSec, int64(SecretVA))

	// Function-pointer chain: two dependent cells ending at the benign
	// target's instruction index.
	b.Data(BoundChainBase, int64(BoundChainBase+256))
	b.DataLabel(BoundChainBase+256, "benign")

	// Delay long enough for the sibling thread to finish training the BTB
	// (the attacker needs a few hundred cycles; this loop runs thousands).
	b.Movi(rCnt, 0)
	b.Movi(rLim, 4000)
	b.Label("victim_wait")
	b.Addi(rCnt, rCnt, 1)
	b.Blt(rCnt, rLim, "victim_wait")

	// Flush the chain, then make the indirect call: the target resolves only
	// after two serialized misses while speculation runs at the
	// BTB-predicted (attacker-installed) target.
	emitFlushChain(b, rTmp, BoundChainBase, 2)
	b.Fence()
	b.Movi(rFn, int64(BoundChainBase))
	b.Load(rFn, rFn, 0)
	b.Load(rFn, rFn, 0)
	b.Label("victim_call")
	b.Calli(rFn, 0) // BTB-predicted; actual target is "benign"
	b.Fence()
	// The attacker re-enters the victim's call site each training round and
	// falls through to here after the gadget returns; this branch sends it
	// back to its loop while the victim continues into the probe.
	b.Bne(rAtk, isa.Zero, "attacker_next")
	emitProbeLoads(b, ProbeBase, ProbeStride)
	b.Halt()

	// The legitimate call target.
	b.Label("benign")
	b.Addi(isa.T6, isa.T6, 1)
	b.Ret()

	// The gadget: never called architecturally by the victim. The secret
	// pointer is a register so the attacker's architectural executions read
	// a zeroed scratch word (slot 0) instead of the secret.
	b.Label("gadget")
	b.Load(rVal, rSec, 0)
	b.Shli(rVal, rVal, 9)
	b.Addi(rVal, rVal, int64(ProbeBase))
	b.Load(rTmp, rVal, 0)
	b.Ret()

	// ---- Thread 1: the attacker ----
	b.Label("attacker")
	b.Movi(rAtk, 1)
	b.Movi(rSec, int64(ScratchBase)) // gadget reads 0 -> probe slot 0 only
	b.Movi(rFn, int64(FnTableBase))
	b.Load(rFn, rFn, 0) // rFn = gadget's instruction index
	b.Movi(rCnt, 0)
	b.Movi(rLim, 64)
	b.Label("attacker_train")
	b.Jmp("victim_call") // execute the victim's own Calli with rFn = gadget
	b.Label("attacker_next")
	b.Addi(rCnt, rCnt, 1)
	b.Blt(rCnt, rLim, "attacker_train")
	b.Halt()

	b.SetThreadEntry(0, "") // thread 0 keeps the default entry
	b.SetThreadEntry(1, "attacker")
	return b.Build()
}
