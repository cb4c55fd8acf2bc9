package pipeline

import (
	"safespec/internal/cache"
	"safespec/internal/mem"
	"safespec/internal/shadow"
	"safespec/internal/tlb"
)

// Mode selects the speculation-protection policy of the core.
type Mode uint8

const (
	// ModeBaseline is an unprotected out-of-order core: speculative fills
	// go straight into the committed caches and TLBs (leaky).
	ModeBaseline Mode = iota
	// ModeWFB is SafeSpec wait-for-branch: shadow state moves to the
	// committed structures once every older control-flow prediction has
	// resolved. Stops Spectre, not Meltdown.
	ModeWFB
	// ModeWFC is SafeSpec wait-for-commit: shadow state moves only when the
	// owning instruction commits. Also stops Meltdown.
	ModeWFC
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeWFB:
		return "safespec-wfb"
	case ModeWFC:
		return "safespec-wfc"
	default:
		return "mode(?)"
	}
}

// SafeSpec reports whether shadow structures are in use.
func (m Mode) SafeSpec() bool { return m != ModeBaseline }

// MemSystem bundles the memory-side state of the core: architectural
// memory, the cache hierarchy, TLBs, the page walker, and — under SafeSpec —
// the four shadow structures.
type MemSystem struct {
	Mode Mode
	Mem  *mem.Memory
	Hier *cache.Hierarchy
	ITLB *tlb.TLB
	DTLB *tlb.TLB
	Walk *tlb.Walker

	// Shadow structures; nil in baseline mode.
	ShD    *shadow.Structure
	ShI    *shadow.Structure
	ShDTLB *shadow.Structure
	ShITLB *shadow.Structure

	// FaultsReturnData models Meltdown-vulnerable hardware: a
	// permission-faulting load still forwards the loaded value to
	// speculative dependents.
	FaultsReturnData bool
	// WalkerLatency is the fixed page-walker overhead per walk.
	WalkerLatency int
}

// maxAccessDH bounds the shadow D-cache handles one access can acquire: one
// per page-walk level (PTE reads) plus the data line itself. The inline
// arrays below are sized by it so the per-access result carries no heap
// slices — the access path runs allocation-free.
const maxAccessDH = 3

// shadowHandles is the shadow state one owner holds: a ROB entry, a fetched
// instruction not yet dispatched, a thread's line fill not yet attached to
// an instruction, or one access in progress. Every entry it names leaves
// through one of two doors, the two arrows of paper Figure 3: commit moves
// it to the committed cache or TLB at the owner's visibility point, annul
// frees it in place when the owner is squashed. d[:nD] holds shadow
// D-cache lines — at most one fetch-transferred set (iTLB-walk PTE lines)
// plus one data access's worth, inline so dispatch and issue never
// allocate — and the other three hold at most one entry each.
type shadowHandles struct {
	d             [2 * maxAccessDH]shadow.Handle
	nD            int
	dtlb, i, itlb shadow.Handle
}

// addD records an acquired shadow D-cache handle.
func (s *shadowHandles) addD(h shadow.Handle) {
	s.d[s.nD] = h
	s.nD++
}

// take moves o's handles into s and empties o. Each dTLB, I-cache or iTLB
// handle o holds lands in a slot s leaves empty.
func (s *shadowHandles) take(o *shadowHandles) {
	if o.nD > 0 {
		s.nD += copy(s.d[s.nD:], o.d[:o.nD])
	}
	if o.dtlb.Valid() {
		s.dtlb = o.dtlb
	}
	if o.i.Valid() {
		s.i = o.i
	}
	if o.itlb.Valid() {
		s.itlb = o.itlb
	}
	o.reset()
}

// reset forgets every handle. Stale d slots past nD are unreachable, so the
// inline array is not zero-filled.
func (s *shadowHandles) reset() {
	s.nD = 0
	s.dtlb, s.i, s.itlb = shadow.Handle{}, shadow.Handle{}, shadow.Handle{}
}

// annul releases every held entry as squashed, in place (the "annul update
// to the shadow state" arrow). An entry some other path already freed — it
// moved, was replaced or was flushed — is skipped. Baseline mode holds no
// handles, so its nil shadow structures are never dereferenced.
func (s *shadowHandles) annul(ms *MemSystem) {
	for _, h := range s.d[:s.nD] {
		if ms.ShD.StillValid(h) {
			ms.ShD.Release(h, false)
		}
	}
	if ms.ShDTLB.StillValid(s.dtlb) {
		ms.ShDTLB.Release(s.dtlb, false)
	}
	if ms.ShI.StillValid(s.i) {
		ms.ShI.Release(s.i, false)
	}
	if ms.ShITLB.StillValid(s.itlb) {
		ms.ShITLB.Release(s.itlb, false)
	}
	s.reset()
}

// commit moves every held entry to the committed structures: cache lines to
// the cache hierarchy, translations to the TLBs (the "update committed
// state" arrow). Shared entries are force-freed: once the state is
// committed, remaining speculative references would hit the committed
// structures anyway. A second commit finds nothing left to move.
func (s *shadowHandles) commit(ms *MemSystem) {
	for _, h := range s.d[:s.nD] {
		if ms.ShD.StillValid(h) {
			ms.Hier.FillData(ms.ShD.ForceFree(h, true))
		}
	}
	if ms.ShDTLB.StillValid(s.dtlb) {
		pl := ms.ShDTLB.PayloadOf(s.dtlb)
		ms.DTLB.Fill(ms.ShDTLB.ForceFree(s.dtlb, true), pl.Frame, mem.Perm(pl.Perm))
	}
	if ms.ShI.StillValid(s.i) {
		ms.Hier.FillInstr(ms.ShI.ForceFree(s.i, true))
	}
	if ms.ShITLB.StillValid(s.itlb) {
		pl := ms.ShITLB.PayloadOf(s.itlb)
		ms.ITLB.Fill(ms.ShITLB.ForceFree(s.itlb, true), pl.Frame, mem.Perm(pl.Perm))
	}
	s.reset()
}

// lineSrc classifies where a line lookup hit (Figures 12-15 statistics).
type lineSrc uint8

const (
	srcMiss   lineSrc = iota // neither; filled from further out
	srcL1                    // the committed L1
	srcShadow                // the thread's shadow structure
)

// accessResult is the outcome of one data-side or instruction-side access.
type accessResult struct {
	// latency is the access time; the front end stalls for it.
	latency int
	fault   mem.Fault
	value   int64
	pa      uint64
	blocked bool
	// src is where the data or instruction line itself was found.
	src lineSrc
	// sh holds the shadow entries the access acquired: PTE lines and the
	// new translation, plus the data or instruction line.
	sh shadowHandles
}

// translate maps va through the committed TLB tb, then the shadow TLB stlb,
// walking the page table on a miss. PTE reads go through the D-cache path
// and charge res. The walked translation fills tb (baseline) or a new stlb
// entry whose handle lands in *hold (SafeSpec). A blocked access gives back
// what it acquired, so the retry starts clean.
func (ms *MemSystem) translate(tb *tlb.TLB, stlb *shadow.Structure, hold *shadow.Handle, va, owner, part uint64, res *accessResult) (frame uint64, perm mem.Perm, ok bool) {
	vpage := va &^ uint64(mem.PageMask)
	if f, p, hit := tb.Lookup(va); hit {
		return f, p, true
	}
	if ms.Mode.SafeSpec() {
		if h, hit := stlb.Lookup(vpage); hit {
			pl := stlb.PayloadOf(h)
			return pl.Frame, mem.Perm(pl.Perm), true
		}
	}
	res.latency += ms.WalkerLatency
	tr := ms.Walk.Walk(va)
	for _, step := range tr.Steps {
		if step.PA == 0 {
			continue
		}
		lat, _, blocked := ms.readLine(step.PA, owner, part, res)
		if blocked {
			res.blocked = true
			res.sh.annul(ms)
			return 0, 0, false
		}
		res.latency += lat
	}
	if tr.Fault != mem.FaultNone {
		res.fault = tr.Fault
		return 0, 0, false
	}
	if !ms.Mode.SafeSpec() {
		tb.Fill(va, tr.Frame, tr.Perm)
		return tr.Frame, tr.Perm, true
	}
	h, ok, blocked := stlb.Alloc(vpage, owner, part, shadow.Payload{Frame: tr.Frame, Perm: uint8(tr.Perm)})
	if blocked {
		res.blocked = true
		res.sh.annul(ms)
		return 0, 0, false
	}
	if ok {
		*hold = h
	}
	return tr.Frame, tr.Perm, true
}

// readLine charges one read of the D-cache line holding pa — a PTE or a
// load's data line — and reports where it hit. A shadow hit takes a
// reference on the shared entry and costs the L1 hit time (conservatively);
// a miss fills the shadow D-cache (SafeSpec) or the committed hierarchy
// (baseline).
func (ms *MemSystem) readLine(pa, owner, part uint64, res *accessResult) (latency int, src lineSrc, blocked bool) {
	line := cache.LineAddr(pa)
	if ms.Mode.SafeSpec() {
		if _, hit := ms.ShD.Lookup(line); hit {
			if h, ok, _ := ms.ShD.Alloc(line, owner, part, shadow.Payload{}); ok {
				res.sh.addD(h)
			}
			return ms.Hier.L1D.HitLatency(), srcShadow, false
		}
	}
	lat, level := ms.Hier.AccessData(pa)
	if level == cache.LevelL1 {
		return lat, srcL1, false
	}
	if !ms.Mode.SafeSpec() {
		ms.Hier.FillData(pa)
		return lat, srcMiss, false
	}
	h, ok, blk := ms.ShD.Alloc(line, owner, part, shadow.Payload{})
	if blk {
		return 0, srcMiss, true
	}
	if ok {
		res.sh.addD(h)
	}
	return lat, srcMiss, false
}

// resolveData performs the address half of a data access: dTLB (with page
// walk on miss) and the user-mode permission check. It reports false when
// the access must retry (res.blocked) or the walk faulted. A store stops
// here: its data write and cache fill happen later, at commit (TSO).
func (ms *MemSystem) resolveData(va, owner, part uint64, res *accessResult) bool {
	frame, perm, ok := ms.translate(ms.DTLB, ms.ShDTLB, &res.sh.dtlb, va, owner, part, res)
	if !ok {
		return false
	}
	res.fault = mem.CheckAccess(mem.Translation{Frame: frame, Perm: perm}, false)
	res.pa = frame + (va & uint64(mem.PageMask))
	return true
}

// LoadAccess performs the full data-side access for a load to va: address
// resolution, the semantic read, and the data cache lookup/fill. It never
// mutates architectural memory.
func (ms *MemSystem) LoadAccess(va uint64, owner, part uint64) accessResult {
	var res accessResult
	if !ms.resolveData(va, owner, part, &res) {
		if !res.blocked {
			// Unmapped (or walk fault): charge the wasted lookup time.
			res.latency += ms.Hier.L1D.HitLatency()
		}
		return res
	}
	if res.fault == mem.FaultNone || ms.FaultsReturnData {
		if v, err := ms.Mem.ReadPhys(res.pa); err == nil {
			res.value = v
		}
	}
	lat, src, blocked := ms.readLine(res.pa, owner, part, &res)
	if blocked {
		res.blocked = true
		res.sh.annul(ms)
		return res
	}
	res.latency += lat
	res.src = src
	return res
}

// FetchAccess performs the instruction-side access for the line at lineVA:
// iTLB (with walk on miss; PTE reads through the D-cache path) and the
// I-cache lookup/fill. res.latency is how many cycles fetch must wait (0
// on L1/shadow hits) and res.pa the physical line (0 on a fault).
func (ms *MemSystem) FetchAccess(lineVA uint64, owner, part uint64) accessResult {
	var res accessResult
	frame, _, ok := ms.translate(ms.ITLB, ms.ShITLB, &res.sh.itlb, lineVA, owner, part, &res)
	if res.blocked {
		return res
	}
	if !ok {
		// Unmapped code page: treat as a long stall; the front end will be
		// redirected before this matters in practice.
		res.latency += ms.Hier.Config().MemLatency
		return res
	}
	res.pa = frame + (lineVA & uint64(mem.PageMask))
	if ms.Mode.SafeSpec() {
		if _, hit := ms.ShI.Lookup(res.pa); hit {
			res.src = srcShadow
			return res
		}
	}
	lat, level := ms.Hier.AccessInstr(res.pa)
	if level == cache.LevelL1 {
		res.src = srcL1
		return res
	}
	res.latency += lat
	if !ms.Mode.SafeSpec() {
		ms.Hier.FillInstr(res.pa)
		return res
	}
	h, ok, blk := ms.ShI.Alloc(res.pa, owner, part, shadow.Payload{})
	if blk {
		res.blocked = true
		return res
	}
	if ok {
		res.sh.i = h
	}
	return res
}

// ClassifyILine reports where the given physical instruction line currently
// resides (shadow I-cache or committed L1I), without perturbing statistics
// or replacement state. The front end uses it to attribute same-line reuse
// fetches — the spatial-locality effect behind the paper's Figure 15.
func (ms *MemSystem) ClassifyILine(paLine uint64) (inShadow, inL1 bool) {
	if ms.Mode.SafeSpec() && ms.ShI.Contains(paLine) {
		return true, false
	}
	return false, ms.Hier.L1I.Contains(paLine)
}

// FlushLine removes the line containing va from every committed cache level
// and from the shadow caches (clflush semantics, executed at commit).
func (ms *MemSystem) FlushLine(va uint64) {
	tr := ms.Mem.Walk(va)
	if tr.Fault != mem.FaultNone {
		return
	}
	pa := tr.Frame + (va & uint64(mem.PageMask))
	line := cache.LineAddr(pa)
	ms.Hier.Flush(pa)
	if ms.Mode.SafeSpec() {
		ms.ShD.InvalidateKey(line)
		ms.ShI.InvalidateKey(line)
	}
}

// SampleOccupancy records the current shadow occupancies into their
// attached histograms (no-op in baseline mode or without histograms).
func (ms *MemSystem) SampleOccupancy() {
	if !ms.Mode.SafeSpec() {
		return
	}
	ms.ShD.Sample()
	ms.ShI.Sample()
	ms.ShDTLB.Sample()
	ms.ShITLB.Sample()
}
