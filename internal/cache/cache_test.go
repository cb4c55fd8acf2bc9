package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "test", SizeBytes: 2048, Ways: 2, HitLatency: 4} // 16 sets
}

func TestConfigValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "zero"},
		{Name: "odd", SizeBytes: 1000, Ways: 2},       // not divisible
		{Name: "nonpow2", SizeBytes: 64 * 3, Ways: 1}, // 3 sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s should be invalid", c.Name)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New must panic on invalid geometry")
		}
	}()
	New(Config{Name: "bad"})
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(small())
	if c.Lookup(0x100) {
		t.Error("cold lookup hit")
	}
	c.Fill(0x100)
	if !c.Lookup(0x100) {
		t.Error("filled line missed")
	}
	if !c.Lookup(0x13F) { // same 64B line
		t.Error("same-line offset missed")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small()) // 16 sets × 2 ways
	sets := uint64(c.Config().Sets())
	// Three lines mapping to set 0: line addresses k * sets * 64.
	a := uint64(0)
	b := sets * 64
	d := 2 * sets * 64
	c.Fill(a)
	c.Fill(b)
	c.Lookup(a) // make a the MRU
	ev, was := c.Fill(d)
	if !was || ev != b {
		t.Errorf("evicted %#x (was=%v), want %#x", ev, was, b)
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Error("LRU state wrong after eviction")
	}
}

func TestFillExistingTouchesLRU(t *testing.T) {
	c := New(small())
	sets := uint64(c.Config().Sets())
	a, b, d := uint64(0), sets*64, 2*sets*64
	c.Fill(a)
	c.Fill(b)
	c.Fill(a) // re-fill = touch, no eviction
	if c.Stats.Fills != 2 {
		t.Errorf("re-fill counted as fill: %+v", c.Stats)
	}
	ev, _ := c.Fill(d) // should evict b (a was touched)
	if ev != b {
		t.Errorf("evicted %#x, want %#x", ev, b)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(small())
	c.Fill(0x40)
	if !c.Invalidate(0x40) {
		t.Error("invalidate of present line returned false")
	}
	if c.Invalidate(0x40) {
		t.Error("double invalidate returned true")
	}
	if c.Contains(0x40) {
		t.Error("line present after invalidate")
	}
	if c.Stats.Flushes != 1 {
		t.Errorf("flush count = %d", c.Stats.Flushes)
	}
}

func TestReset(t *testing.T) {
	c := New(small())
	c.Fill(0x40)
	c.Lookup(0x40)
	c.Reset()
	if c.Occupancy() != 0 || c.Stats.Hits != 0 {
		t.Error("reset incomplete")
	}
}

// TestResetMatchesNew: Reset clears only the sets filled since the last
// Reset and leaves the cache exactly as New built it, from sparse and from
// dense use alike.
func TestResetMatchesNew(t *testing.T) {
	cfg := Config{Name: "test", SizeBytes: 64 << 10, Ways: 4, HitLatency: 4} // 256 sets
	rng := rand.New(rand.NewSource(1))
	c := New(cfg)
	for round, lines := range []int{3, 40, 5000, 0, 100} {
		for i := 0; i < lines; i++ {
			addr := uint64(rng.Intn(1<<20)) * LineSize
			c.Fill(addr)
			if rng.Intn(4) == 0 {
				c.Invalidate(addr)
			}
			c.Lookup(addr)
		}
		c.Reset()
		if !reflect.DeepEqual(c, New(cfg)) {
			t.Fatalf("round %d (%d fills): reset cache differs from a new one", round, lines)
		}
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(small())
	sets := uint64(c.Config().Sets())
	a, b, d := uint64(0), sets*64, 2*sets*64
	c.Fill(a)
	c.Fill(b)
	c.Contains(a) // must NOT touch LRU
	ev, _ := c.Fill(d)
	if ev != a {
		t.Errorf("Contains perturbed LRU: evicted %#x, want %#x", ev, a)
	}
	if c.Stats.Hits != 0 {
		t.Error("Contains counted statistics")
	}
}

func TestSkylakeHierarchyConfig(t *testing.T) {
	h := SkylakeHierarchy()
	if h.L1D.SizeBytes != 32<<10 || h.L1D.Ways != 8 || h.L1D.HitLatency != 4 {
		t.Errorf("L1D config wrong: %+v", h.L1D)
	}
	if h.L2.SizeBytes != 256<<10 || h.L2.HitLatency != 12 {
		t.Errorf("L2 config wrong: %+v", h.L2)
	}
	if h.L3.SizeBytes != 2<<20 || h.L3.Ways != 16 || h.L3.HitLatency != 44 {
		t.Errorf("L3 config wrong: %+v", h.L3)
	}
	if h.MemLatency != 191 {
		t.Errorf("memory latency = %d", h.MemLatency)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(SkylakeHierarchy())
	lat, level := h.AccessData(0x1000)
	if level != LevelMem || lat != 44+191 {
		t.Errorf("cold access: %d at %v", lat, level)
	}
	h.FillData(0x1000)
	lat, level = h.AccessData(0x1000)
	if level != LevelL1 || lat != 4 {
		t.Errorf("L1 hit: %d at %v", lat, level)
	}
	// Evict from L1 only: simulate by invalidating L1D.
	h.L1D.Invalidate(0x1000)
	lat, level = h.AccessData(0x1000)
	if level != LevelL2 || lat != 12 {
		t.Errorf("L2 hit: %d at %v", lat, level)
	}
	h.L2.Invalidate(0x1000)
	h.L1D.Invalidate(0x1000)
	lat, level = h.AccessData(0x1000)
	if level != LevelL3 || lat != 44 {
		t.Errorf("L3 hit: %d at %v", lat, level)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy(SkylakeHierarchy())
	h.FillData(0x2000)
	h.FillInstr(0x3000)
	h.Flush(0x2000)
	h.Flush(0x3000)
	if _, level := h.AccessData(0x2000); level != LevelMem {
		t.Error("data line survived flush")
	}
	if _, level := h.AccessInstr(0x3000); level != LevelMem {
		t.Error("instr line survived flush")
	}
}

func TestInstrDataShareL2(t *testing.T) {
	h := NewHierarchy(SkylakeHierarchy())
	h.FillInstr(0x4000)
	// The same line must hit in L2 from the data side (unified L2).
	h.L1D.Invalidate(0x4000) // not present anyway
	_, level := h.AccessData(0x4000)
	if level != LevelL2 {
		t.Errorf("unified L2 lookup from data side: %v", level)
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if LineAddr(0x1200) != 0x1200 {
		t.Error("aligned address changed")
	}
}

func TestMissRate(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty miss rate != 0")
	}
}

// Property: occupancy never exceeds capacity, and a line just filled is
// always present.
func TestOccupancyBoundProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(small())
		capacity := c.Config().Sets() * c.Config().Ways
		for _, a := range addrs {
			c.Fill(uint64(a))
			if !c.Contains(uint64(a)) {
				return false
			}
			if c.Occupancy() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the hierarchy remains inclusive — any line in L1D is also in
// L2 and L3 — across random fills, flushes and accesses.
func TestInclusionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHierarchy(HierarchyConfig{
		L1I:        Config{Name: "L1I", SizeBytes: 1 << 10, Ways: 2, HitLatency: 4},
		L1D:        Config{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, HitLatency: 4},
		L2:         Config{Name: "L2", SizeBytes: 4 << 10, Ways: 4, HitLatency: 12},
		L3:         Config{Name: "L3", SizeBytes: 8 << 10, Ways: 4, HitLatency: 44},
		MemLatency: 191,
	})
	lines := make([]uint64, 0, 4000)
	for i := 0; i < 4000; i++ {
		addr := uint64(rng.Intn(1<<16)) &^ (LineSize - 1)
		lines = append(lines, addr)
		switch rng.Intn(4) {
		case 0:
			h.FillData(addr)
		case 1:
			h.FillInstr(addr)
		case 2:
			h.Flush(addr)
		default:
			h.AccessData(addr)
		}
		// Spot-check inclusion on a random earlier line.
		probe := lines[rng.Intn(len(lines))]
		if h.L1D.Contains(probe) || h.L1I.Contains(probe) {
			if !h.L3.Contains(probe) {
				t.Fatalf("inclusion violated: %#x in L1 but not L3 (op %d)", probe, i)
			}
		}
	}
}
