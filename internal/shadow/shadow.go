// Package shadow implements the SafeSpec shadow structures: fully
// associative buffers that hold the microarchitectural side effects of
// speculative instructions until those instructions become safe (under
// wait-for-branch or wait-for-commit policies), at which point the state is
// moved into the committed structures; or until they are squashed, at which
// point the entries are annulled in place, leaving no trace.
//
// This is the paper's primary contribution (Section III/IV). Two kinds of
// buffers exist:
//
//   - Cache shadows (shadow D-cache, shadow I-cache) holding speculatively
//     fetched cache lines, keyed by line address.
//   - TLB shadows (shadow dTLB, shadow iTLB) holding speculatively walked
//     translations, keyed by virtual page.
//
// Both are the same structure with different key semantics, so one type
// serves all four, parameterized by Policy.
//
// The Policy also captures the behaviour when the structure is full — Block
// (the requesting instruction stalls) or Drop (the update is discarded).
// Either behaviour opens the transient speculation attack (TSA) covert
// channel of Section V when the structure is small enough to contend on;
// the Secure sizing (LSQ-bound for data-side structures, ROB-bound for
// instruction-side structures) removes the contention and closes the
// channel. The attacks package demonstrates both sides.
package shadow

import (
	"fmt"

	"safespec/internal/stats"
)

// OnFull selects the behaviour when an allocation finds no free entry.
type OnFull uint8

const (
	// Block makes the allocating instruction stall until an entry frees up.
	Block OnFull = iota
	// Drop discards the update; the line/translation simply is not
	// recorded, costing a re-fetch if the instruction commits.
	Drop
	// Replace evicts the oldest entry to make room. The evicted entry's
	// owners lose their shadow state (their handles go stale), so the
	// update they were carrying never reaches the committed structures.
	// This is the contention behaviour the paper's transient speculation
	// attack (Section V) exploits.
	Replace
)

// String names the policy.
func (o OnFull) String() string {
	switch o {
	case Block:
		return "block"
	case Drop:
		return "drop"
	default:
		return "replace"
	}
}

// Policy sizes a shadow structure and selects its full behaviour.
type Policy struct {
	// Name identifies the structure in statistics ("shadow-dcache", ...).
	Name string
	// Entries is the capacity. The paper's Secure configuration bounds this
	// by the LSQ size (data side) or ROB size (instruction side).
	Entries int
	// WhenFull selects Block, Drop or Replace.
	WhenFull OnFull
	// Partitioned enables the paper's alternative TSA mitigation
	// (Section V): "partition the structures such that there is no
	// contention among different speculative branches". Entries carry the
	// partition key of their allocating instruction (the pipeline uses the
	// youngest unresolved branch tag), and the Replace policy may only
	// evict entries of the SAME partition. A mis-speculated trojan can
	// then never displace state belonging to a path that will commit; a
	// full structure with no same-partition victim degrades to Drop.
	Partitioned bool
}

// Validate reports configuration errors.
func (p Policy) Validate() error {
	if p.Entries <= 0 {
		return fmt.Errorf("shadow %s: non-positive capacity", p.Name)
	}
	return nil
}

// Stats counts shadow-structure activity. These feed Figures 6-9, 13, 15
// and 16 of the paper.
type Stats struct {
	// Allocs counts entries allocated.
	Allocs uint64
	// Hits counts lookups that found a speculative entry (shadow hits,
	// Figures 13/15).
	Hits uint64
	// Lookups counts all lookups.
	Lookups uint64
	// Committed counts entries moved to the committed structures
	// (numerator of the Figure 16 commit rate).
	Committed uint64
	// Squashed counts entries annulled in place.
	Squashed uint64
	// DroppedFull counts allocations discarded because the structure was
	// full under the Drop policy.
	DroppedFull uint64
	// BlockedCycles counts cycles an instruction stalled under Block.
	BlockedCycles uint64
	// Replaced counts entries evicted by the Replace policy.
	Replaced uint64
	// Flushes counts entries removed by clflush.
	Flushes uint64
}

// Add accumulates o into s (summing per-thread shadow structures into
// core-wide totals for SMT runs).
func (s *Stats) Add(o Stats) {
	s.Allocs += o.Allocs
	s.Hits += o.Hits
	s.Lookups += o.Lookups
	s.Committed += o.Committed
	s.Squashed += o.Squashed
	s.DroppedFull += o.DroppedFull
	s.BlockedCycles += o.BlockedCycles
	s.Replaced += o.Replaced
	s.Flushes += o.Flushes
}

// HitRate returns Hits/Lookups.
func (s Stats) HitRate() float64 { return stats.Rate(s.Hits, s.Lookups) }

// CommitRate returns Committed/(Committed+Squashed) — the Figure 16 metric.
func (s Stats) CommitRate() float64 {
	return stats.Rate(s.Committed, s.Committed+s.Squashed)
}

type entry struct {
	valid bool
	key   uint64
	// owner is the ROB sequence number of the instruction that allocated
	// the entry; commit/squash address entries through the handle, so the
	// owner is kept for debugging and invariant checks.
	owner uint64
	// partition is the speculative-path key under Partitioned policies.
	partition uint64
	// refs counts in-flight instructions sharing the entry (several
	// speculative loads can hit the same shadow line).
	refs int
	// payload carries structure-specific data (the TLB shadows store the
	// translated frame and permission bits here).
	payload Payload
}

// Payload is the structure-specific content of a shadow entry. For cache
// shadows it is unused (tag-only, like the committed caches); for TLB
// shadows it carries the translation.
type Payload struct {
	// Frame is the translated physical frame (TLB shadows).
	Frame uint64
	// Perm holds permission bits as a small integer (TLB shadows).
	Perm uint8
}

// Handle identifies an allocated shadow entry. The zero Handle is invalid.
// Load/store-queue and ROB entries store Handles, mirroring the paper's
// "pointer to the shadow structure" augmentation.
type Handle struct {
	idx int
	gen uint64
}

// Valid reports whether the handle refers to an allocation.
func (h Handle) Valid() bool { return h.gen != 0 }

// Structure is one fully associative shadow buffer.
type Structure struct {
	policy  Policy
	entries []entry
	gens    []uint64
	free    []int
	nValid  int
	genCtr  uint64
	// touched is one past the highest entry allocated since Reset. The free
	// list is a stack that starts as New's [Entries-1 ... 0], so the
	// entries a run ever allocated are exactly [0, touched), and the
	// entries above still sit untouched at the bottom of the stack.
	touched int
	// index is an open-addressed (linear probing) key -> entry-slot table
	// accelerating the fully associative match: valid entries have unique
	// keys, so every Lookup/Contains/Alloc/InvalidateKey resolves in O(1)
	// instead of scanning all Entries slots. Slots hold the entry index, or
	// idxEmpty. The table never allocates after New.
	index   []int32
	idxMask uint64
	// Stats accumulates activity counters.
	Stats Stats
	// Occupancy is sampled per cycle by the pipeline into this histogram
	// (Figures 6-9). Nil disables sampling.
	Occupancy *stats.Histogram
}

// idxEmpty marks a free probe-table slot.
const idxEmpty = int32(-1)

// New builds a shadow structure; it panics on an invalid policy.
func New(policy Policy) *Structure {
	if err := policy.Validate(); err != nil {
		panic(err)
	}
	// Probe table sized to keep load factor <= 1/4.
	tbl := 8
	for tbl < 4*policy.Entries {
		tbl *= 2
	}
	s := &Structure{
		policy:  policy,
		entries: make([]entry, policy.Entries),
		gens:    make([]uint64, policy.Entries),
		free:    make([]int, policy.Entries),
		index:   make([]int32, tbl),
		idxMask: uint64(tbl - 1),
	}
	for i := range s.free {
		s.free[i] = policy.Entries - 1 - i
	}
	for i := range s.index {
		s.index[i] = idxEmpty
	}
	return s
}

// idxHome returns the preferred probe-table slot for key.
func (s *Structure) idxHome(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> 32 & s.idxMask
}

// idxFind returns the entry slot holding key, or -1.
func (s *Structure) idxFind(key uint64) int {
	for i := s.idxHome(key); ; i = (i + 1) & s.idxMask {
		slot := s.index[i]
		if slot == idxEmpty {
			return -1
		}
		if s.entries[slot].key == key {
			return int(slot)
		}
	}
}

// idxInsert records that entry slot holds key.
func (s *Structure) idxInsert(key uint64, slot int) {
	i := s.idxHome(key)
	for s.index[i] != idxEmpty {
		i = (i + 1) & s.idxMask
	}
	s.index[i] = int32(slot)
}

// idxDelete removes key from the probe table, backward-shifting the
// displaced tail of its probe cluster so future probes stay correct.
func (s *Structure) idxDelete(key uint64) {
	i := s.idxHome(key)
	for {
		slot := s.index[i]
		if slot == idxEmpty {
			return // not present (already removed)
		}
		if s.entries[slot].key == key {
			break
		}
		i = (i + 1) & s.idxMask
	}
	s.index[i] = idxEmpty
	// Re-slot everything in the cluster after the hole.
	for j := (i + 1) & s.idxMask; s.index[j] != idxEmpty; j = (j + 1) & s.idxMask {
		slot := s.index[j]
		home := s.idxHome(s.entries[slot].key)
		// Move slot back into the hole unless its home lies strictly after
		// the hole (cyclically between hole and current position).
		if (j-home)&s.idxMask >= (j-i)&s.idxMask {
			s.index[i] = slot
			s.index[j] = idxEmpty
			i = j
		}
	}
}

// Policy returns the structure's policy.
func (s *Structure) Policy() Policy { return s.policy }

// Len returns the number of valid entries (current occupancy).
func (s *Structure) Len() int { return s.nValid }

// Full reports whether no free entry remains.
func (s *Structure) Full() bool { return s.nValid == len(s.entries) }

// Sample records the current occupancy into the attached histogram, if any.
func (s *Structure) Sample() {
	if s.Occupancy != nil {
		s.Occupancy.Add(s.nValid)
	}
}

// SampleN records the current occupancy n times (idle-cycle fast-forward).
func (s *Structure) SampleN(n uint64) {
	if s.Occupancy != nil {
		s.Occupancy.AddN(s.nValid, n)
	}
}

// Lookup searches for a valid entry with the given key. It counts toward
// hit-rate statistics.
func (s *Structure) Lookup(key uint64) (Handle, bool) {
	s.Stats.Lookups++
	if i := s.idxFind(key); i >= 0 {
		s.Stats.Hits++
		return Handle{idx: i, gen: s.gens[i]}, true
	}
	return Handle{}, false
}

// Contains reports presence without touching statistics.
func (s *Structure) Contains(key uint64) bool {
	return s.idxFind(key) >= 0
}

// Alloc reserves an entry for key on behalf of instruction owner. If an
// entry with the same key already exists, its reference count is bumped and
// its handle returned (several speculative instructions may share a line).
//
// When the structure is full the result depends on the policy: Drop returns
// ok=false (the caller proceeds without shadow state, losing the update);
// Block returns blocked=true (the caller must retry next cycle); Replace
// evicts the oldest entry — restricted to the allocator's own partition
// when the policy is Partitioned.
//
// partition is the speculative-path key (ignored unless Partitioned).
func (s *Structure) Alloc(key uint64, owner uint64, partition uint64, payload Payload) (h Handle, ok, blocked bool) {
	if i := s.idxFind(key); i >= 0 {
		s.entries[i].refs++
		return Handle{idx: i, gen: s.gens[i]}, true, false
	}
	if s.nValid == len(s.entries) {
		switch s.policy.WhenFull {
		case Block:
			s.Stats.BlockedCycles++
			return Handle{}, false, true
		case Drop:
			s.Stats.DroppedFull++
			return Handle{}, false, false
		default: // Replace: evict the oldest eligible entry
			victim, oldest := -1, ^uint64(0)
			for i := range s.entries {
				e := &s.entries[i]
				if !e.valid || e.owner >= oldest {
					continue
				}
				if s.policy.Partitioned && e.partition != partition {
					continue
				}
				oldest = e.owner
				victim = i
			}
			if victim < 0 {
				// Partitioned and no same-path victim: the allocator may
				// not displace other speculative paths' state (that is the
				// whole point); degrade to Drop.
				s.Stats.DroppedFull++
				return Handle{}, false, false
			}
			s.freeSlot(victim)
			s.Stats.Replaced++
		}
	}
	idx := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.touched = max(s.touched, idx+1)
	s.genCtr++
	s.gens[idx] = s.genCtr
	s.entries[idx] = entry{valid: true, key: key, owner: owner, partition: partition, refs: 1, payload: payload}
	s.idxInsert(key, idx)
	s.nValid++
	s.Stats.Allocs++
	return Handle{idx: idx, gen: s.genCtr}, true, false
}

// Key returns the key of the entry behind h. It panics if h is stale — a
// pipeline bookkeeping bug.
func (s *Structure) Key(h Handle) uint64 {
	s.check(h)
	return s.entries[h.idx].key
}

// PayloadOf returns the payload of the entry behind h.
func (s *Structure) PayloadOf(h Handle) Payload {
	s.check(h)
	return s.entries[h.idx].payload
}

func (s *Structure) check(h Handle) {
	if !h.Valid() || h.idx < 0 || h.idx >= len(s.entries) || s.gens[h.idx] != h.gen || !s.entries[h.idx].valid {
		panic(fmt.Sprintf("shadow %s: stale handle %+v", s.policy.Name, h))
	}
}

// Release drops one reference from the entry behind h, recording the final
// disposition when the last reference goes away: committed=true means the
// state moved to the committed structures, false means it was squashed and
// annulled in place. It returns the entry's key and whether the entry was
// actually freed (last reference).
func (s *Structure) Release(h Handle, committed bool) (key uint64, freed bool) {
	s.check(h)
	e := &s.entries[h.idx]
	key = e.key
	e.refs--
	if e.refs > 0 {
		// The disposition of a shared entry is decided by its last
		// referencing instruction; intermediate releases only drop refs.
		return key, false
	}
	s.dispose(h.idx, committed)
	return key, true
}

// ForceFree disposes of the entry behind h immediately, regardless of its
// reference count. It is used at commit time: once one referencing
// instruction commits, the line moves to the committed structures, so any
// remaining speculative references simply lose their shadow pointer (they
// would hit the committed structure from then on anyway). It returns the
// entry's key.
func (s *Structure) ForceFree(h Handle, committed bool) uint64 {
	s.check(h)
	key := s.entries[h.idx].key
	s.dispose(h.idx, committed)
	return key
}

// dispose frees entry slot i and tallies its disposition: moved to the
// committed structures, or annulled in place.
func (s *Structure) dispose(i int, committed bool) {
	s.freeSlot(i)
	if committed {
		s.Stats.Committed++
	} else {
		s.Stats.Squashed++
	}
}

// freeSlot invalidates the valid entry in slot i and returns the slot to
// the free list. Bumping its generation makes every handle to it stale.
func (s *Structure) freeSlot(i int) {
	s.idxDelete(s.entries[i].key)
	s.entries[i].valid = false
	s.gens[i]++
	s.free = append(s.free, i)
	s.nValid--
}

// InvalidateKey removes the entry with the given key regardless of
// references (clflush semantics: the attacker may flush a line out of the
// shadow state too). Instructions holding handles discover the eviction via
// stale-handle checks by calling StillValid.
func (s *Structure) InvalidateKey(key uint64) bool {
	i := s.idxFind(key)
	if i < 0 {
		return false
	}
	s.freeSlot(i)
	s.Stats.Flushes++
	return true
}

// StillValid reports whether h still refers to a live entry (false after
// InvalidateKey or Release freed it).
func (s *Structure) StillValid(h Handle) bool {
	return h.Valid() && h.idx >= 0 && h.idx < len(s.entries) &&
		s.gens[h.idx] == h.gen && s.entries[h.idx].valid
}

// Reset clears all entries and statistics (the occupancy histogram, if
// attached, is preserved so callers can aggregate across runs). Entries,
// free list and probe table end as New built them; only the entries the
// last run allocated are visited. Generations only advance, so a handle
// from before the Reset stays stale.
func (s *Structure) Reset() {
	for i := range s.entries[:s.touched] {
		if s.entries[i].valid {
			s.idxDelete(s.entries[i].key)
		}
		s.entries[i] = entry{}
		s.gens[i]++
	}
	s.free = s.free[:len(s.entries)-s.touched]
	for i := s.touched - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	s.touched = 0
	s.nValid = 0
	s.Stats = Stats{}
}

// Keys returns the keys of all valid entries (test helper).
func (s *Structure) Keys() []uint64 {
	var out []uint64
	for i := range s.entries {
		if s.entries[i].valid {
			out = append(out, s.entries[i].key)
		}
	}
	return out
}
