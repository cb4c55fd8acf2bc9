// Package cache implements the set-associative caches and the inclusive
// three-level hierarchy of the simulated CPU (Table II of the paper:
// 32 KiB 8-way L1I and L1D with 4-cycle hits, 256 KiB 4-way L2 with 12-cycle
// hits, 2 MiB 16-way L3 with 44-cycle hits, and 191-cycle memory).
//
// Caches here carry no data — only tags and LRU state. Architectural values
// live in package mem; see the package comment there for why the split is
// the right model for studying SafeSpec.
package cache

import (
	"fmt"

	"safespec/internal/dirtyset"
	"safespec/internal/stats"
)

// LineBits is log2 of the cache-line size (64-byte lines).
const LineBits = 6

// LineSize is the cache-line size in bytes.
const LineSize = 1 << LineBits

// LineAddr truncates an address to its line base.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// Config describes one cache level.
type Config struct {
	// Name identifies the level in statistics output ("L1D", "L2", ...).
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// HitLatency is the access time in cycles on a hit at this level.
	HitLatency int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (LineSize * c.Ways) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(LineSize*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, s)
	}
	return nil
}

// Stats counts accesses at one level.
type Stats struct {
	// Hits and Misses count lookups at this level.
	Hits, Misses uint64
	// Fills counts lines installed.
	Fills uint64
	// Evictions counts valid lines displaced by fills.
	Evictions uint64
	// Flushes counts lines removed by clflush.
	Flushes uint64
}

// MissRate returns Misses / (Hits+Misses).
func (s Stats) MissRate() float64 { return stats.Rate(s.Misses, s.Hits+s.Misses) }

// way is one cache way, 16 bytes: tag holds the line number plus one, so
// the zero way is invalid, and lru is the access stamp (higher = more
// recently used).
type way struct {
	tag uint64
	lru uint64
}

// Cache is one set-associative, LRU, tag-only cache level.
type Cache struct {
	cfg      Config
	sets     [][]way
	setMask  uint64
	hitLat   int // cfg.HitLatency, denormalized off the Config struct
	lruClock uint64
	// dirty records the sets filled since the last Reset, so Reset clears
	// what a run touched, not the whole tag array.
	dirty dirtyset.Sets
	// Stats accumulates hit/miss counts. Exported for the harness to read.
	Stats Stats
}

// New builds a cache from cfg; it panics on invalid geometry (a programming
// error in the caller's configuration).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]way, cfg.Sets())
	backing := make([]way, cfg.Sets()*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(cfg.Sets() - 1),
		hitLat:  cfg.HitLatency,
		dirty:   dirtyset.New(cfg.Sets()),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the access time on a hit at this level. Precomputed so
// hot paths avoid copying the whole Config struct per access.
func (c *Cache) HitLatency() int { return c.hitLat }

// index returns the set addr maps to and addr's tag.
func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	line := addr >> LineBits
	return line & c.setMask, line + 1
}

// Lookup probes for the line containing addr. On a hit it updates LRU and
// returns true. It records hit/miss statistics.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	ws := c.sets[set]
	for i := range ws {
		if ws[i].tag == tag {
			c.lruClock++
			ws[i].lru = c.lruClock
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Contains probes without updating LRU or statistics (used by tests and by
// timing-only checks).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	ws := c.sets[set]
	for i := range ws {
		if ws[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill installs the line containing addr, evicting the LRU way if the set is
// full. It returns the evicted line address and whether an eviction happened.
func (c *Cache) Fill(addr uint64) (evicted uint64, wasEvicted bool) {
	set, tag := c.index(addr)
	ws := c.sets[set]
	c.lruClock++
	// Already present? Just touch.
	for i := range ws {
		if ws[i].tag == tag {
			ws[i].lru = c.lruClock
			return 0, false
		}
	}
	c.Stats.Fills++
	victim := 0
	for i := range ws {
		if ws[i].tag == 0 {
			// Only a fill into an invalid way can be a set's first write
			// since Reset: an eviction or a touch needs a valid way.
			c.dirty.Mark(set)
			ws[i] = way{tag: tag, lru: c.lruClock}
			return 0, false
		}
		if ws[i].lru < ws[victim].lru {
			victim = i
		}
	}
	evicted = (ws[victim].tag - 1) << LineBits
	c.Stats.Evictions++
	ws[victim] = way{tag: tag, lru: c.lruClock}
	return evicted, true
}

// Invalidate removes the line containing addr if present, returning whether
// it was present.
func (c *Cache) Invalidate(addr uint64) bool {
	set, tag := c.index(addr)
	ws := c.sets[set]
	for i := range ws {
		if ws[i].tag == tag {
			ws[i].tag = 0
			c.Stats.Flushes++
			return true
		}
	}
	return false
}

// Reset invalidates every line and clears statistics, leaving the cache
// exactly as New built it. It clears only the sets filled since the last
// Reset.
func (c *Cache) Reset() {
	for _, s := range c.dirty.List() {
		clear(c.sets[s])
	}
	c.dirty.Clear()
	c.Stats = Stats{}
	c.lruClock = 0
}

// Occupancy returns the number of valid lines (used by tests).
func (c *Cache) Occupancy() int {
	n := 0
	for _, ws := range c.sets {
		for _, w := range ws {
			if w.tag != 0 {
				n++
			}
		}
	}
	return n
}

// HierarchyConfig describes the full memory system.
type HierarchyConfig struct {
	L1I, L1D, L2, L3 Config
	// MemLatency is the flat main-memory access time in cycles.
	MemLatency int
}

// SkylakeHierarchy returns the paper's Table II configuration.
func SkylakeHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4},
		L1D:        Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4},
		L2:         Config{Name: "L2", SizeBytes: 256 << 10, Ways: 4, HitLatency: 12},
		L3:         Config{Name: "L3", SizeBytes: 2 << 20, Ways: 16, HitLatency: 44},
		MemLatency: 191,
	}
}

// Level identifies where an access hit.
type Level uint8

// Hit levels, from fastest to slowest.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	default:
		return "Mem"
	}
}

// Hierarchy is the inclusive three-level cache system with a flat-latency
// memory behind it. The two L1s (instruction and data) share the unified
// L2 and L3.
type Hierarchy struct {
	cfg HierarchyConfig
	// L1I and L1D are the private first-level caches.
	L1I, L1D *Cache
	// L2 and L3 are the shared levels.
	L2, L3 *Cache
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		L1I: New(cfg.L1I),
		L1D: New(cfg.L1D),
		L2:  New(cfg.L2),
		L3:  New(cfg.L3),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// AccessData performs a timing lookup for a data access to addr, WITHOUT
// filling on miss. It returns the total latency and the level that serviced
// the request. Separating lookup from fill lets SafeSpec route fills to the
// shadow structure instead.
func (h *Hierarchy) AccessData(addr uint64) (latency int, level Level) {
	return h.access(h.L1D, addr)
}

// AccessInstr is AccessData for the instruction side.
func (h *Hierarchy) AccessInstr(addr uint64) (latency int, level Level) {
	return h.access(h.L1I, addr)
}

func (h *Hierarchy) access(l1 *Cache, addr uint64) (int, Level) {
	if l1.Lookup(addr) {
		return l1.hitLat, LevelL1
	}
	if h.L2.Lookup(addr) {
		return h.L2.hitLat, LevelL2
	}
	if h.L3.Lookup(addr) {
		return h.L3.hitLat, LevelL3
	}
	return h.L3.hitLat + h.cfg.MemLatency, LevelMem
}

// FillData installs the line containing addr into L1D, L2 and L3 (the caches
// are inclusive, as in the paper's simulated configuration).
func (h *Hierarchy) FillData(addr uint64) {
	h.L1D.Fill(addr)
	h.fillShared(addr, h.L1D, h.L1I)
}

// FillInstr installs the line into L1I, L2 and L3.
func (h *Hierarchy) FillInstr(addr uint64) {
	h.L1I.Fill(addr)
	h.fillShared(addr, h.L1I, h.L1D)
}

func (h *Hierarchy) fillShared(addr uint64, owner, other *Cache) {
	h.L2.Fill(addr)
	if ev, ok := h.L3.Fill(addr); ok {
		// Inclusive L3: back-invalidate evicted lines everywhere above.
		h.L2.Invalidate(ev)
		owner.Invalidate(ev)
		other.Invalidate(ev)
	}
}

// Flush removes the line containing addr from every level (clflush).
func (h *Hierarchy) Flush(addr uint64) {
	h.L1I.Invalidate(addr)
	h.L1D.Invalidate(addr)
	h.L2.Invalidate(addr)
	h.L3.Invalidate(addr)
}

// Reset clears all levels and their statistics.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.L3.Reset()
}
