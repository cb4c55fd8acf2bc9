package attacks

import (
	"fmt"

	"safespec/internal/asm"
	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/shadow"
	"safespec/internal/workloads"
)

// TSA implements the Transient Speculation Attack of Section V (Figure 10):
// a covert channel through the *shadow structures themselves*, exploitable
// when they are small enough for speculative instructions to contend.
//
// The choreography per leaked bit, all inside one speculation window:
//
//   - Step 1 (spy, speculative but will commit): two loads bring lines A
//     and B into the shadow D-cache while an older, slow-resolving branch
//     keeps them speculative.
//   - Step 2 (trojan, mis-speculated): a younger branch is mistrained so
//     speculation falls into the trojan, which reads the secret and — if
//     the chosen bit is 1 — loads two other lines. With a 2-entry shadow
//     structure under the Replace policy, those fills evict A and B from
//     the shadow state, so their updates never reach the committed cache.
//     If the bit is 0 the trojan touches A's own line, evicting nothing.
//   - Step 3 (committed): after everything resolves, the program times
//     loads of A and B. Slow means "replaced" means the bit was 1.
//
// With worst-case ("Secure") sizing the shadow structure can never fill
// within one speculation window, the trojan cannot displace the spy's
// entries, and the channel closes — the mitigation row of Table IV.
type TSA struct {
	// Secret is the planted 4-bit value (1..15).
	Secret int64
}

// TSAOutcome reports a transient-attack run.
type TSAOutcome struct {
	// BitTimes are the measured A-load latencies per bit position.
	BitTimes [4]uint64
	// Recovered is the reassembled value.
	Recovered int64
	// Secret is the planted value.
	Secret int64
	// Leaked reports Recovered == Secret.
	Leaked bool
}

// TinyShadowPolicy returns the deliberately undersized, contention-prone
// shadow configuration the TSA exploits: 2-entry data-side structures with
// Replace-on-full.
func TinyShadowPolicy() (d, i, dtlb, itlb shadow.Policy) {
	d = shadow.Policy{Name: "shadow-dcache", Entries: 2, WhenFull: shadow.Replace}
	i = shadow.Policy{Name: "shadow-icache", Entries: 224}
	dtlb = shadow.Policy{Name: "shadow-dtlb", Entries: 64}
	itlb = shadow.Policy{Name: "shadow-itlb", Entries: 224}
	return d, i, dtlb, itlb
}

// tsaThreshold (cycles) splits the timed A-load: a shadow-committed L1 hit
// reads bit 0, a memory miss (the trojan replaced A's shadow entry) bit 1.
const tsaThreshold = 60

// Run executes the attack under cfg, leaking the secret bit by bit (one
// program run per bit, retraining each time).
func (t TSA) Run(cfg core.Config) (TSAOutcome, error) {
	secret := t.Secret
	if secret == 0 {
		secret = DefaultSecret
	}
	out := TSAOutcome{Secret: secret}
	for bit := 0; bit < 4; bit++ {
		prog, err := tsaPrograms.Get(tsaKey{secret, bit}, buildTSABit)
		if err != nil {
			return out, fmt.Errorf("attacks: building tsa bit %d: %w", bit, err)
		}
		sim := core.Acquire(cfg, prog)
		sim.Run()
		times, err := readResults(sim, 1)
		sim.Release()
		if err != nil {
			return out, err
		}
		out.BitTimes[bit] = times[0]
		if times[0] > tsaThreshold {
			out.Recovered |= 1 << uint(bit)
		}
	}
	out.Leaked = out.Recovered == secret
	return out, nil
}

// Addresses private to the TSA program.
const (
	tsaLineA  uint64 = 0x0020_0000 // spy line A
	tsaLineB  uint64 = 0x0020_1000 // spy line B (different page/line)
	tsaChain1 uint64 = 0x0021_0000 // delays the spy's guarding branch B1
	tsaChain2 uint64 = 0x0022_0000 // delays the trojan's guarding branch B2
)

// tsaKey identifies one memoized TSA program: the planted secret and the
// bit it leaks.
type tsaKey struct {
	secret int64
	bit    int
}

var tsaPrograms workloads.Memo[tsaKey]

// buildTSABit assembles the program leaking bit k.bit of k.secret.
func buildTSABit(k tsaKey) (*isa.Program, error) {
	secret, bit := k.secret, k.bit
	b := asm.NewBuilder()
	emitResultsRegion(b)
	b.Region(tsaLineA, 4096, false)
	b.Region(tsaLineB, 4096, false)
	b.Region(tsaChain1, 4096, false)
	b.Region(tsaChain2, 4096, false)
	b.Region(SecretVA, 4096, false)
	b.Data(SecretVA, secret)

	const (
		rC1   = isa.T0 // B1 condition (chain result)
		rC2   = isa.T1 // B2 condition (chain result)
		rA    = isa.T2
		rBv   = isa.T3
		rSec  = isa.T4
		rOff  = isa.T5
		rAdr  = isa.T6
		rIter = isa.S0
		rLim  = isa.S1
		rT1   = isa.S2
		rT2   = isa.S3
		rArm  = isa.A0 // 0 = training pass, 1 = attack pass
	)

	// Delay cells: one flushed load each gates B1 and B2. A single level
	// (rather than a chain) matters: a second dependent load would itself
	// allocate into the tiny shadow structure mid-window and thrash the
	// spy's entries regardless of the secret.
	b.Data(tsaChain1, 0) // B1 condition: always 0 → always taken to the spy
	b.Data(tsaChain2, 1) // B2 condition: 1 during training → falls into the trojan

	// alignHistory emits a tight 8-iteration loop of taken branches so the
	// gshare global history is in the same state before every victim call
	// — otherwise the attack pass would index cold PHT entries and B1/B2
	// would not be predicted the way training set them up.
	align := 0
	alignHistory := func() {
		align++
		label := fmt.Sprintf("align%d", align)
		b.Movi(rT1, 0)
		b.Movi(rT2, 8)
		b.Label(label)
		b.Addi(rT1, rT1, 1)
		b.Blt(rT1, rT2, label)
	}

	// --- main ---
	// Training passes: everything warm, B1 taken (spy path), B2 not taken
	// (falls through into the trojan, which is harmless because the
	// trojan's probe offsets are scaled by rArm = 0).
	b.Movi(rIter, 0)
	b.Movi(rLim, 8)
	b.Label("train")
	b.Movi(rArm, 0)
	alignHistory()
	b.Call("victim")
	b.Addi(rIter, rIter, 1)
	b.Blt(rIter, rLim, "train")

	// Arm the attack pass:
	//   chain2 cell := 0 so B2 is actually taken (trojan becomes the wrong
	//   path), flush both delay cells (speculation window), flush A and B
	//   (so the spy's loads must allocate shadow entries), flush the
	//   trojan's target lines (so its fills must allocate too).
	b.Movi(rAdr, int64(tsaChain2))
	b.Movi(rT1, 0)
	b.Store(rT1, rAdr, 0)
	emitFlushChain(b, rT1, tsaChain1, 1)
	emitFlushChain(b, rT1, tsaChain2, 1)
	b.Movi(rAdr, int64(tsaLineA))
	b.Clflush(rAdr, 0)
	b.Clflush(rAdr, 512)  // trojan target line C (A + 512)
	b.Clflush(rAdr, 1024) // trojan target line D (A + 1024)
	b.Movi(rAdr, int64(tsaLineB))
	b.Clflush(rAdr, 0)
	b.Fence()
	b.Movi(rArm, 1)
	alignHistory()
	b.Call("victim")
	b.Fence()

	// Step 3: time the spy's line A on the committed path. If the trojan
	// replaced it in the shadow, its fill never reached the committed
	// cache and this load misses.
	b.RdCycle(rT1)
	b.Movi(rAdr, int64(tsaLineA))
	b.Load(rA, rAdr, 0)
	b.Add(rA, rA, rA)
	b.RdCycle(rT2)
	b.Sub(rT2, rT2, rT1)
	b.Movi(rAdr, int64(ResultsBase))
	b.Store(rT2, rAdr, 0)
	b.Halt()

	// --- victim ---
	b.Label("victim")
	// B1's condition: one flushed load, value 0 → taken to "spy".
	b.Movi(rC1, int64(tsaChain1))
	b.Load(rC1, rC1, 0)
	// B2's condition: issued equally early so both branches resolve
	// together, after the spy and trojan have done their shadow traffic.
	b.Movi(rC2, int64(tsaChain2))
	b.Load(rC2, rC2, 0)
	b.Beq(rC1, isa.Zero, "spy") // B1: predicted and actually taken
	b.Ret()                     // (never reached)

	b.Label("spy")
	// Step 1: the spy's speculative loads, guarded by the unresolved B1.
	b.Movi(rAdr, int64(tsaLineA))
	b.Load(rA, rAdr, 0)
	b.Movi(rAdr, int64(tsaLineB))
	b.Load(rBv, rAdr, 0)
	// B2: trained not-taken (trojan side); actually taken in the attack
	// pass. Resolution waits on the chain2 misses.
	b.Beq(rC2, isa.Zero, "reconverge")

	// Step 2 (trojan, wrong path in the attack pass): read the secret and
	// touch lines whose addresses depend on the chosen bit. bitval=0 →
	// offsets 0 (line A itself: harmless ref). bitval=1 → offsets 512 and
	// 1024 (two fresh lines: with a 2-entry Replace shadow these evict the
	// spy's A and B entries).
	b.Movi(rAdr, int64(SecretVA))
	b.Load(rSec, rAdr, 0)
	b.Shri(rSec, rSec, int64(bit))
	b.Andi(rSec, rSec, 1)
	b.Mul(rSec, rSec, rArm) // inert during training passes
	b.Shli(rOff, rSec, 9)   // bit*512
	b.Movi(rAdr, int64(tsaLineA))
	b.Add(rAdr, rAdr, rOff)
	b.Load(rT1, rAdr, 0)
	b.Shli(rOff, rSec, 10) // bit*1024
	b.Movi(rAdr, int64(tsaLineA))
	b.Add(rAdr, rAdr, rOff)
	b.Load(rT2, rAdr, 0)

	b.Label("reconverge")
	b.Ret()

	return b.Build()
}
