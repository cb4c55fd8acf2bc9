// Package tlb implements the instruction and data translation lookaside
// buffers of the simulated CPU (64 entries each in the paper's Table I) and
// the page walker that refills them.
//
// As in the paper (Section IV-A), the walker issues its PTE reads through
// the data-cache path: the pipeline charges those reads against the D-cache
// hierarchy (and, under SafeSpec, their fills go to the shadow D-cache), so
// only the TLB arrays themselves need dedicated shadow structures.
package tlb

import (
	"fmt"

	"safespec/internal/dirtyset"
	"safespec/internal/mem"
	"safespec/internal/stats"
)

// Config describes one TLB.
type Config struct {
	// Name identifies the TLB in statistics output ("iTLB", "dTLB").
	Name string
	// Entries is the total number of entries.
	Entries int
	// Ways is the associativity. Entries must be divisible by Ways and the
	// resulting set count must be a power of two.
	Ways int
	// HitLatency is the lookup time in cycles (usually folded into the
	// cache access; kept explicit for the timing-channel experiments).
	HitLatency int
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Entries / c.Ways }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb %s: bad geometry %d/%d", c.Name, c.Entries, c.Ways)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("tlb %s: set count %d not a power of two", c.Name, s)
	}
	return nil
}

// SkylakeITLB returns the paper's 64-entry iTLB configuration.
func SkylakeITLB() Config { return Config{Name: "iTLB", Entries: 64, Ways: 4, HitLatency: 1} }

// SkylakeDTLB returns the paper's 64-entry dTLB configuration.
func SkylakeDTLB() Config { return Config{Name: "dTLB", Entries: 64, Ways: 4, HitLatency: 1} }

// Stats counts TLB activity.
type Stats struct {
	Hits, Misses uint64
	// Walks counts page walks triggered by misses.
	Walks uint64
	// Fills counts entries installed.
	Fills uint64
	// Flushes counts entries removed explicitly.
	Flushes uint64
}

// MissRate returns Misses / (Hits+Misses).
func (s Stats) MissRate() float64 { return stats.Rate(s.Misses, s.Hits+s.Misses) }

type entry struct {
	valid bool
	vpage uint64
	frame uint64
	perm  mem.Perm
	lru   uint64
}

// TLB is one set-associative translation buffer keyed by virtual page.
type TLB struct {
	cfg      Config
	sets     [][]entry
	setMask  uint64
	lruClock uint64
	// dirty records the sets filled since the last Reset, so Reset clears
	// only those.
	dirty dirtyset.Sets
	// Stats accumulates activity counters.
	Stats Stats
}

// New builds a TLB from cfg; it panics on invalid geometry.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]entry, cfg.Sets())
	backing := make([]entry, cfg.Sets()*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &TLB{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(cfg.Sets() - 1),
		dirty:   dirtyset.New(cfg.Sets()),
	}
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

func (t *TLB) index(va uint64) (set uint64, vpage uint64) {
	vpn := va >> mem.PageBits
	return vpn & t.setMask, vpn << mem.PageBits
}

// Lookup probes the TLB for va. On a hit it returns the cached translation.
func (t *TLB) Lookup(va uint64) (frame uint64, perm mem.Perm, hit bool) {
	set, vpage := t.index(va)
	for i := range t.sets[set] {
		e := &t.sets[set][i]
		if e.valid && e.vpage == vpage {
			t.lruClock++
			e.lru = t.lruClock
			t.Stats.Hits++
			return e.frame, e.perm, true
		}
	}
	t.Stats.Misses++
	return 0, 0, false
}

// Contains probes without updating LRU or statistics.
func (t *TLB) Contains(va uint64) bool {
	set, vpage := t.index(va)
	for i := range t.sets[set] {
		e := &t.sets[set][i]
		if e.valid && e.vpage == vpage {
			return true
		}
	}
	return false
}

// Fill installs a translation, evicting LRU if necessary.
func (t *TLB) Fill(va, frame uint64, perm mem.Perm) {
	set, vpage := t.index(va)
	t.lruClock++
	for i := range t.sets[set] {
		e := &t.sets[set][i]
		if e.valid && e.vpage == vpage {
			e.frame, e.perm, e.lru = frame, perm, t.lruClock
			return
		}
	}
	t.Stats.Fills++
	victim := 0
	for i := range t.sets[set] {
		e := &t.sets[set][i]
		if !e.valid {
			// Only a fill into an invalid entry can be a set's first write
			// since Reset.
			t.dirty.Mark(set)
			victim = i
			break
		}
		if e.lru < t.sets[set][victim].lru {
			victim = i
		}
	}
	t.sets[set][victim] = entry{valid: true, vpage: vpage, frame: frame, perm: perm, lru: t.lruClock}
}

// Invalidate removes the translation for va if present.
func (t *TLB) Invalidate(va uint64) bool {
	set, vpage := t.index(va)
	for i := range t.sets[set] {
		e := &t.sets[set][i]
		if e.valid && e.vpage == vpage {
			e.valid = false
			t.Stats.Flushes++
			return true
		}
	}
	return false
}

// Reset invalidates everything and clears statistics, leaving the TLB
// exactly as New built it. It clears only the sets filled since the last
// Reset.
func (t *TLB) Reset() {
	for _, s := range t.dirty.List() {
		clear(t.sets[s])
	}
	t.dirty.Clear()
	t.Stats = Stats{}
	t.lruClock = 0
}

// Occupancy returns the number of valid entries.
func (t *TLB) Occupancy() int {
	n := 0
	for s := range t.sets {
		for i := range t.sets[s] {
			if t.sets[s][i].valid {
				n++
			}
		}
	}
	return n
}

// Walker performs page walks against architectural memory, reporting the
// PTE reads so the pipeline can charge them to the D-cache path.
type Walker struct {
	// Mem is the architectural memory whose page table is walked.
	Mem *mem.Memory
	// BaseLatency is the fixed walker overhead in cycles, on top of the
	// memory-system time of the PTE reads.
	BaseLatency int
	// Walks counts completed walks.
	Walks uint64
}

// Walk translates va, returning the translation (including the PTE
// addresses read, which the caller charges to the cache hierarchy).
func (w *Walker) Walk(va uint64) mem.Translation {
	w.Walks++
	return w.Mem.Walk(va)
}
