// Package mem implements the architectural memory of the simulator: a
// byte-addressable, paged virtual address space with user/kernel permission
// bits and a software-walkable page table.
//
// The simulator splits semantics from timing: architectural values live
// here, while caches, TLBs and the SafeSpec shadow structures (packages
// cache, tlb, shadow) model only presence and replacement. That split is
// what makes "squash the shadow state in place" a pure timing operation, as
// in the paper.
//
// The page table is a real in-memory radix structure whose entries occupy
// physical addresses, so the page walker performs genuine memory reads that
// travel through the data-cache path — the property the paper relies on when
// arguing that protecting the D-cache also protects the page-walk traffic.
package mem

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"weak"
)

// PageBits is log2 of the page size. 4 KiB pages, as on x86-64.
const PageBits = 12

// PageSize is the page size in bytes.
const PageSize = 1 << PageBits

// PageMask extracts the offset within a page.
const PageMask = PageSize - 1

// Perm describes page permissions.
type Perm uint8

const (
	// PermUser marks the page readable from user mode.
	PermUser Perm = 1 << iota
	// PermKernel marks the page readable only from kernel mode. A user-mode
	// access to such a page raises a permission fault at commit time.
	PermKernel
)

// Fault enumerates architectural faults.
type Fault uint8

const (
	// FaultNone means the access was legal.
	FaultNone Fault = iota
	// FaultPerm is a permission violation (user access to a kernel page).
	FaultPerm
	// FaultUnmapped is an access to an unmapped virtual page.
	FaultUnmapped
)

// String returns a short name for the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPerm:
		return "perm"
	case FaultUnmapped:
		return "unmapped"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// ErrUnmapped is returned by direct physical accesses to absent frames.
var ErrUnmapped = errors.New("mem: unmapped address")

// PTE is a page-table entry as stored in simulated physical memory.
// Layout: bit 0 = valid, bit 1 = user, bit 2 = kernel, bits 12+ = frame base.
type PTE uint64

// pteValid is the valid bit of a PTE.
const pteValid PTE = 1

// Valid reports whether the entry maps a frame.
func (p PTE) Valid() bool { return p&pteValid != 0 }

// Perm returns the permission bits of the entry.
func (p PTE) Perm() Perm { return Perm((p >> 1) & 3) }

// Frame returns the physical frame base address.
func (p PTE) Frame() uint64 { return uint64(p) &^ uint64(PageMask) }

// MakePTE builds a PTE for the given frame and permissions.
func MakePTE(frame uint64, perm Perm) PTE {
	return PTE(frame&^uint64(PageMask)) | PTE(perm)<<1 | pteValid
}

// Walk levels: a 2-level table covering 36 bits of VA
// (12 offset + 12 + 12). Each level is a 4096-entry array of 8-byte PTEs,
// i.e. exactly one 32 KiB region... to keep walks short (2 memory reads),
// matching the cost profile that matters for the TLB experiments.
const (
	walkLevels  = 2
	idxBits     = 12
	idxMask     = (1 << idxBits) - 1
	entriesPerL = 1 << idxBits
)

// regionBytes is the bump-allocator granularity: page-table levels are
// 4096 entries * 8 B, and every allocated region is addressed at this
// stride so a physical address maps to its region by pure arithmetic.
const regionBytes = entriesPerL * 8

// Memory is the simulated physical memory plus the page-table machinery.
//
// A memory either owns all its frames (New, then Map and FillPage) or
// reads through an immutable Image (FromImage, Load) and copies a frame the
// first time it writes to it. Pooled simulators share one Image per program
// that way: binding a memory to an image copies frame headers, not words.
type Memory struct {
	// frames holds the allocated regions in bump order: region i covers
	// physical addresses [physBase+i*regionBytes, +len(frames[i])*8).
	// Page-table regions are fully populated (entriesPerL words); data
	// regions only back their first page, which is all a 4 KiB-page
	// translation can reach. Indexing by arithmetic instead of a map keeps
	// ReadPhys/WritePhys — the hottest memory-system calls (every PTE read
	// of every page walk lands here) — map-free.
	frames [][]int64
	// owned[i] reports whether frames[i] is this memory's private copy.
	// Other frames belong to an Image (or are the shared zero frame) and
	// are never written: WritePhys copies them first.
	owned []bool
	// spareData and spareTables hold private frames released by Load, by
	// size, for the next copy-on-write to reuse, so a memory that is loaded
	// and run again and again allocates nothing once warm.
	spareData, spareTables [][]int64
	// rootPA is the physical base of the level-1 page table.
	rootPA uint64
	// nextFreePA is a bump allocator for frames (page tables and data).
	nextFreePA uint64
}

// physBase is where the bump allocator starts handing out frames.
// Virtual addresses used by programs are far below this, avoiding collisions
// between PA-space and the VA values that identify lines in the caches.
const physBase = 1 << 40

// New returns an empty memory with an allocated (empty) root page table.
func New() *Memory {
	m := &Memory{nextFreePA: physBase}
	m.rootPA = m.allocFrame(entriesPerL)
	return m
}

// allocFrame reserves a zeroed physical region of the given word count and
// returns its base address. The region occupies a full regionBytes slot of
// the PA space regardless of words.
func (m *Memory) allocFrame(words int) uint64 {
	base := m.nextFreePA
	m.nextFreePA += regionBytes
	m.frames = append(m.frames, make([]int64, words))
	m.owned = append(m.owned, true)
	return base
}

// RootPA returns the physical address of the root page table, which the
// page walker dereferences.
func (m *Memory) RootPA() uint64 { return m.rootPA }

// slotOf locates the allocated region containing pa.
func (m *Memory) slotOf(pa uint64) (uint64, bool) {
	if pa < physBase {
		return 0, false
	}
	slot := (pa - physBase) / regionBytes
	return slot, slot < uint64(len(m.frames))
}

// ReadPhys reads the 64-bit word at physical address pa (8-byte aligned by
// truncation).
func (m *Memory) ReadPhys(pa uint64) (int64, error) {
	slot, ok := m.slotOf(pa)
	if !ok {
		return 0, ErrUnmapped
	}
	f := m.frames[slot]
	i := (pa - physBase) % regionBytes / 8
	if i >= uint64(len(f)) {
		return 0, ErrUnmapped
	}
	return f[i], nil
}

// WritePhys writes the 64-bit word at physical address pa, first copying
// the containing frame if this memory does not own it yet.
func (m *Memory) WritePhys(pa uint64, v int64) error {
	slot, ok := m.slotOf(pa)
	if !ok {
		return ErrUnmapped
	}
	i := (pa - physBase) % regionBytes / 8
	if i >= uint64(len(m.frames[slot])) {
		return ErrUnmapped
	}
	if !m.owned[slot] {
		m.own(slot)
	}
	m.frames[slot][i] = v
	return nil
}

// own replaces the borrowed frame at slot with a private copy, reusing a
// spare frame of the same size when there is one.
func (m *Memory) own(slot uint64) {
	src := m.frames[slot]
	spare := m.spares(len(src))
	var dst []int64
	if n := len(*spare); n > 0 {
		dst = (*spare)[n-1]
		*spare = (*spare)[:n-1]
	} else {
		dst = make([]int64, len(src))
	}
	copy(dst, src)
	m.frames[slot] = dst
	m.owned[slot] = true
}

// spares returns the spare list for frames of the given word count.
func (m *Memory) spares(words int) *[][]int64 {
	if words == entriesPerL {
		return &m.spareTables
	}
	return &m.spareData
}

// Image is an immutable snapshot of a loaded memory. Any number of
// memories, on any number of goroutines, can read through one Image at
// once: each copies a frame on its first write to it and never writes the
// Image itself.
type Image struct {
	// slots is the number of allocated regions.
	slots int
	// frames lists every region that is not an all-zero data frame, in slot
	// order; the regions it omits read as zeroFrame. Stored frames are
	// interned, so Images share every frame whose content they have in
	// common: the page tables of programs with one layout (a kernel under
	// different seeds) and data such as a kernel's jump table.
	frames             []imageFrame
	rootPA, nextFreePA uint64
}

// imageFrame is one stored region of an Image.
type imageFrame struct {
	slot int
	*frozen
}

// frozen holds the words of an interned frame, which never change. Images
// point to it so the intern table can hold it weakly.
type frozen struct{ words []int64 }

// zeroFrame backs every all-zero data frame of every Image. Nothing writes
// it: it is never owned by a Memory.
var zeroFrame [PageSize / 8]int64

// Freeze snapshots m into an Image. m keeps its content but no longer owns
// any frame: from now on it reads through the Image and copies on write,
// exactly like FromImage(img).
func (m *Memory) Freeze() *Image {
	img := &Image{slots: len(m.frames), rootPA: m.rootPA, nextFreePA: m.nextFreePA}
	for slot, f := range m.frames {
		if len(f) == len(zeroFrame) && slices.Equal(f, zeroFrame[:]) {
			continue
		}
		img.frames = append(img.frames, imageFrame{slot: slot, frozen: intern(f)})
	}
	clear(m.owned)
	m.Load(img)
	return img
}

// FromImage returns a memory that reads through img.
func FromImage(img *Image) *Memory {
	m := &Memory{}
	m.Load(img)
	return m
}

// Load rebinds m to img in O(frames): it copies frame headers and keeps the
// private frames of m's previous content as spares for later copies.
func (m *Memory) Load(img *Image) {
	for slot, f := range m.frames {
		if m.owned[slot] {
			spare := m.spares(len(f))
			*spare = append(*spare, f)
		}
	}
	clear(m.frames) // drop references past img.slots too
	m.frames = slices.Grow(m.frames[:0], img.slots)[:img.slots]
	for slot := range m.frames {
		m.frames[slot] = zeroFrame[:]
	}
	for _, f := range img.frames {
		m.frames[f.slot] = f.words
	}
	m.owned = slices.Grow(m.owned[:0], img.slots)[:img.slots]
	clear(m.owned)
	m.rootPA, m.nextFreePA = img.rootPA, img.nextFreePA
}

// interned maps content hashes to the frozen frames of live Images. The
// references are weak: once no Image holds a frame any more, it is
// collected and dropInterned removes its entry.
var interned = struct {
	sync.Mutex
	byHash map[uint64][]weak.Pointer[frozen]
}{byHash: map[uint64][]weak.Pointer[frozen]{}}

// intern returns the frozen frame whose words equal f, freezing f itself
// if there is none.
func intern(f []int64) *frozen {
	h := hashWords(f)
	interned.Lock()
	defer interned.Unlock()
	for _, w := range interned.byHash[h] {
		if z := w.Value(); z != nil && slices.Equal(z.words, f) {
			return z
		}
	}
	z := &frozen{words: f}
	interned.byHash[h] = append(interned.byHash[h], weak.Make(z))
	runtime.AddCleanup(z, dropInterned, h)
	return z
}

// dropInterned removes the collected frames under hash h.
func dropInterned(h uint64) {
	interned.Lock()
	defer interned.Unlock()
	live := slices.DeleteFunc(interned.byHash[h], func(w weak.Pointer[frozen]) bool {
		return w.Value() == nil
	})
	if len(live) == 0 {
		delete(interned.byHash, h)
	} else {
		interned.byHash[h] = live
	}
}

// hashWords is FNV-1a over 64-bit words.
func hashWords(f []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range f {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return h
}

// Map establishes a mapping for the virtual page containing va with the given
// permissions, allocating a data frame and any missing page-table levels.
// Remapping an already-mapped page updates its permissions in place.
func (m *Memory) Map(va uint64, perm Perm) {
	l1 := (va >> (PageBits + idxBits)) & idxMask
	l2 := (va >> PageBits) & idxMask

	l1pa := m.rootPA + l1*8
	l1e, _ := m.ReadPhys(l1pa)
	l1pte := PTE(l1e)
	if !l1pte.Valid() {
		tbl := m.allocFrame(entriesPerL)
		l1pte = MakePTE(tbl, PermUser|PermKernel)
		_ = m.WritePhys(l1pa, int64(l1pte))
	}
	l2pa := l1pte.Frame() + l2*8
	l2e, _ := m.ReadPhys(l2pa)
	l2pte := PTE(l2e)
	if !l2pte.Valid() {
		// A data frame backs exactly one 4 KiB page: no translation can
		// reach beyond it, so allocating the full region would only burn
		// allocator time and cache footprint per mapped page.
		frame := m.allocFrame(PageSize / 8)
		l2pte = MakePTE(frame, perm)
	} else {
		l2pte = MakePTE(l2pte.Frame(), perm)
	}
	_ = m.WritePhys(l2pa, int64(l2pte))
}

// WalkStep describes one page-walk memory reference (a PTE read), which the
// pipeline routes through the data-cache path.
type WalkStep struct {
	// PA is the physical address of the PTE that was read.
	PA uint64
}

// Translation is the result of a page walk.
type Translation struct {
	// VPage is the virtual page base address.
	VPage uint64
	// Frame is the physical frame base (0 if the walk faulted).
	Frame uint64
	// Perm holds the mapped permissions.
	Perm Perm
	// Fault is FaultNone on success.
	Fault Fault
	// Steps lists the PTE reads performed, oldest first.
	Steps [walkLevels]WalkStep
}

// Walk translates va by walking the page table, returning the translation
// and the list of PTE addresses touched. It never allocates.
func (m *Memory) Walk(va uint64) Translation {
	tr := Translation{VPage: va &^ uint64(PageMask)}
	l1 := (va >> (PageBits + idxBits)) & idxMask
	l2 := (va >> PageBits) & idxMask

	l1pa := m.rootPA + l1*8
	tr.Steps[0] = WalkStep{PA: l1pa}
	l1e, err := m.ReadPhys(l1pa)
	l1pte := PTE(l1e)
	if err != nil || !l1pte.Valid() {
		tr.Fault = FaultUnmapped
		return tr
	}
	l2pa := l1pte.Frame() + l2*8
	tr.Steps[1] = WalkStep{PA: l2pa}
	l2e, err := m.ReadPhys(l2pa)
	l2pte := PTE(l2e)
	if err != nil || !l2pte.Valid() {
		tr.Fault = FaultUnmapped
		return tr
	}
	tr.Frame = l2pte.Frame()
	tr.Perm = l2pte.Perm()
	return tr
}

// CheckAccess returns the fault (if any) for a user-mode access with the
// given translation.
func CheckAccess(tr Translation, kernelMode bool) Fault {
	if tr.Fault != FaultNone {
		return tr.Fault
	}
	if !kernelMode && tr.Perm&PermUser == 0 {
		return FaultPerm
	}
	return FaultNone
}

// Read returns the 64-bit value at virtual address va (8-byte aligned by
// truncation), along with any fault. On fault the data value is still
// returned when the page is mapped — this models the Meltdown-vulnerable
// behaviour in which faulting loads forward data to speculative dependents.
func (m *Memory) Read(va uint64, kernelMode bool) (int64, Fault) {
	tr := m.Walk(va)
	fault := CheckAccess(tr, kernelMode)
	if tr.Fault != FaultNone {
		return 0, fault
	}
	pa := tr.Frame + (va & PageMask)
	v, err := m.ReadPhys(pa)
	if err != nil {
		return 0, FaultUnmapped
	}
	return v, fault
}

// Write stores v at virtual address va. Writes to kernel pages from user
// mode fault and do not modify memory (stores are only performed at commit,
// where the fault is raised first).
func (m *Memory) Write(va uint64, v int64, kernelMode bool) Fault {
	tr := m.Walk(va)
	fault := CheckAccess(tr, kernelMode)
	if fault != FaultNone {
		return fault
	}
	pa := tr.Frame + (va & PageMask)
	if err := m.WritePhys(pa, v); err != nil {
		return FaultUnmapped
	}
	return FaultNone
}

// EnsureMapped maps the page containing va with perm if it is not already
// mapped. It is a convenience used by program loaders.
func (m *Memory) EnsureMapped(va uint64, perm Perm) {
	tr := m.Walk(va)
	if tr.Fault != FaultNone {
		m.Map(va, perm)
	}
}

// FillPage copies words into the frame of the mapped page containing va,
// whatever its permissions. Program loaders install data this way.
func (m *Memory) FillPage(va uint64, words []int64) {
	slot, ok := m.slotOf(m.Walk(va).Frame)
	if !ok {
		panic(fmt.Sprintf("mem: filling unmapped page %#x", va))
	}
	if !m.owned[slot] {
		m.own(slot)
	}
	copy(m.frames[slot], words)
}
