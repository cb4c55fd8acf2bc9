package shadow

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"safespec/internal/stats"
)

func mk(entries int, onFull OnFull) *Structure {
	return New(Policy{Name: "test", Entries: entries, WhenFull: onFull})
}

func TestAllocLookupRelease(t *testing.T) {
	s := mk(4, Block)
	h, ok, blocked := s.Alloc(0x100, 1, 0, Payload{})
	if !ok || blocked {
		t.Fatalf("alloc failed: ok=%v blocked=%v", ok, blocked)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.Key(h); got != 0x100 {
		t.Errorf("Key = %#x", got)
	}
	h2, hit := s.Lookup(0x100)
	if !hit || h2 != h {
		t.Errorf("lookup = %+v %v", h2, hit)
	}
	if _, hit := s.Lookup(0x200); hit {
		t.Error("phantom hit")
	}
	if _, freed := s.Release(h, true); !freed {
		t.Error("single-ref release must free")
	}
	if s.Len() != 0 || s.Stats.Committed != 1 {
		t.Errorf("after release: len=%d stats=%+v", s.Len(), s.Stats)
	}
}

func TestRefCounting(t *testing.T) {
	s := mk(4, Block)
	h1, _, _ := s.Alloc(0x100, 1, 0, Payload{})
	h2, _, _ := s.Alloc(0x100, 2, 0, Payload{}) // same key: shared
	if h1 != h2 {
		t.Fatal("same-key alloc must return the same handle")
	}
	if s.Len() != 1 {
		t.Errorf("shared alloc grew the structure: %d", s.Len())
	}
	if _, freed := s.Release(h1, false); freed {
		t.Error("first of two releases must not free")
	}
	if !s.StillValid(h1) {
		t.Error("entry freed early")
	}
	if _, freed := s.Release(h1, false); !freed {
		t.Error("last release must free")
	}
	if s.Stats.Squashed != 1 {
		t.Errorf("squash count = %d", s.Stats.Squashed)
	}
}

func TestBlockPolicy(t *testing.T) {
	s := mk(2, Block)
	s.Alloc(1, 1, 0, Payload{})
	s.Alloc(2, 2, 0, Payload{})
	_, ok, blocked := s.Alloc(3, 3, 0, Payload{})
	if ok || !blocked {
		t.Errorf("full Block structure: ok=%v blocked=%v", ok, blocked)
	}
	if s.Stats.BlockedCycles != 1 {
		t.Errorf("blocked cycles = %d", s.Stats.BlockedCycles)
	}
	// Same-key alloc still succeeds when full (shares the entry).
	if _, ok, _ := s.Alloc(1, 4, 0, Payload{}); !ok {
		t.Error("same-key alloc must succeed on a full structure")
	}
}

func TestDropPolicy(t *testing.T) {
	s := mk(2, Drop)
	s.Alloc(1, 1, 0, Payload{})
	s.Alloc(2, 2, 0, Payload{})
	_, ok, blocked := s.Alloc(3, 3, 0, Payload{})
	if ok || blocked {
		t.Errorf("full Drop structure: ok=%v blocked=%v", ok, blocked)
	}
	if s.Stats.DroppedFull != 1 {
		t.Errorf("dropped = %d", s.Stats.DroppedFull)
	}
	if s.Contains(3) {
		t.Error("dropped key present")
	}
}

func TestReplacePolicyEvictsOldest(t *testing.T) {
	s := mk(2, Replace)
	hA, _, _ := s.Alloc(0xA, 10, 0, Payload{})
	hB, _, _ := s.Alloc(0xB, 11, 0, Payload{})
	hC, ok, blocked := s.Alloc(0xC, 12, 0, Payload{})
	if !ok || blocked {
		t.Fatalf("replace alloc failed: %v %v", ok, blocked)
	}
	if s.StillValid(hA) {
		t.Error("oldest entry (A) must have been replaced")
	}
	if !s.StillValid(hB) || !s.StillValid(hC) {
		t.Error("B and C must survive")
	}
	if s.Stats.Replaced != 1 {
		t.Errorf("replaced = %d", s.Stats.Replaced)
	}
	// The TSA relies on exactly this: the evicted owner's update is lost.
	if s.Contains(0xA) {
		t.Error("replaced key still present")
	}
}

func TestForceFree(t *testing.T) {
	s := mk(4, Block)
	h, _, _ := s.Alloc(0x100, 1, 0, Payload{})
	s.Alloc(0x100, 2, 0, Payload{}) // refs = 2
	key := s.ForceFree(h, true)
	if key != 0x100 {
		t.Errorf("ForceFree key = %#x", key)
	}
	if s.StillValid(h) || s.Len() != 0 {
		t.Error("ForceFree must free regardless of refs")
	}
	if s.Stats.Committed != 1 {
		t.Errorf("committed = %d", s.Stats.Committed)
	}
}

func TestInvalidateKey(t *testing.T) {
	s := mk(4, Block)
	h, _, _ := s.Alloc(0x100, 1, 0, Payload{})
	if !s.InvalidateKey(0x100) {
		t.Error("invalidate missed")
	}
	if s.InvalidateKey(0x100) {
		t.Error("double invalidate")
	}
	if s.StillValid(h) {
		t.Error("handle valid after invalidate")
	}
	if s.Stats.Flushes != 1 {
		t.Errorf("flushes = %d", s.Stats.Flushes)
	}
}

func TestPayload(t *testing.T) {
	s := mk(2, Block)
	h, _, _ := s.Alloc(0x1000, 1, 0, Payload{Frame: 0xAB000, Perm: 2})
	pl := s.PayloadOf(h)
	if pl.Frame != 0xAB000 || pl.Perm != 2 {
		t.Errorf("payload = %+v", pl)
	}
}

func TestStaleHandlePanics(t *testing.T) {
	s := mk(2, Block)
	h, _, _ := s.Alloc(1, 1, 0, Payload{})
	s.ForceFree(h, false)
	defer func() {
		if recover() == nil {
			t.Error("Key on a stale handle must panic")
		}
	}()
	s.Key(h)
}

func TestZeroHandleInvalid(t *testing.T) {
	var h Handle
	if h.Valid() {
		t.Error("zero handle must be invalid")
	}
	s := mk(2, Block)
	if s.StillValid(h) {
		t.Error("zero handle must not be StillValid")
	}
}

func TestReset(t *testing.T) {
	s := mk(4, Block)
	h, _, _ := s.Alloc(1, 1, 0, Payload{})
	s.Reset()
	if s.Len() != 0 || s.StillValid(h) || s.Stats.Allocs != 0 {
		t.Error("reset incomplete")
	}
	// Full capacity must be available again.
	for i := 0; i < 4; i++ {
		if _, ok, _ := s.Alloc(uint64(i+10), 1, 0, Payload{}); !ok {
			t.Fatalf("alloc %d failed after reset", i)
		}
	}
}

// TestResetMatchesNew: Reset visits only the entries allocated since the
// last Reset, yet leaves entries, free-list order and probe table exactly
// as New built them, with entries still live at the Reset too. Generations
// are the one difference: they only advance, so old handles stay stale.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, onFull := range []OnFull{Block, Drop, Replace} {
		s := mk(16, onFull)
		for round := 0; round < 20; round++ {
			var live []Handle
			for i := rng.Intn(64); i > 0; i-- {
				switch rng.Intn(4) {
				case 0, 1:
					if h, ok, _ := s.Alloc(uint64(rng.Intn(40)), uint64(i), 0, Payload{}); ok {
						live = append(live, h)
					}
				case 2:
					if len(live) > 0 {
						j := rng.Intn(len(live))
						if s.StillValid(live[j]) {
							s.Release(live[j], rng.Intn(2) == 0)
						}
						live = append(live[:j], live[j+1:]...)
					}
				default:
					s.InvalidateKey(uint64(rng.Intn(40)))
				}
			}
			s.Reset()
			for _, h := range live {
				if s.StillValid(h) {
					t.Errorf("%v round %d: handle %+v survived Reset", onFull, round, h)
				}
			}
			fresh := mk(16, onFull)
			gens, genCtr := s.gens, s.genCtr
			s.gens, s.genCtr = fresh.gens, fresh.genCtr
			if !reflect.DeepEqual(s, fresh) {
				t.Fatalf("%v round %d: reset structure differs from a new one", onFull, round)
			}
			s.gens, s.genCtr = gens, genCtr
		}
	}
}

func TestOccupancySampling(t *testing.T) {
	s := mk(8, Block)
	s.Occupancy = stats.NewHistogram(8)
	s.Alloc(1, 1, 0, Payload{})
	s.Sample()
	s.Alloc(2, 2, 0, Payload{})
	s.Sample()
	s.SampleN(3)
	if s.Occupancy.N() != 5 {
		t.Errorf("samples = %d", s.Occupancy.N())
	}
	if s.Occupancy.Max() != 2 {
		t.Errorf("max occupancy = %d", s.Occupancy.Max())
	}
}

func TestValidatePolicy(t *testing.T) {
	if err := (Policy{Name: "x", Entries: 0}).Validate(); err == nil {
		t.Error("zero capacity must be invalid")
	}
	if Block.String() != "block" || Drop.String() != "drop" || Replace.String() != "replace" {
		t.Error("policy names wrong")
	}
}

func TestStatsRates(t *testing.T) {
	s := Stats{Hits: 1, Lookups: 4, Committed: 3, Squashed: 1}
	if s.HitRate() != 0.25 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
	if s.CommitRate() != 0.75 {
		t.Errorf("commit rate = %v", s.CommitRate())
	}
}

// Property: under any operation sequence, Len never exceeds capacity and
// equals the number of distinct live keys.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := mk(4, OnFull(rng.Intn(3)))
		var handles []Handle
		for i := 0; i < int(nOps); i++ {
			switch rng.Intn(3) {
			case 0:
				h, ok, _ := s.Alloc(uint64(rng.Intn(10)), uint64(i), 0, Payload{})
				if ok {
					handles = append(handles, h)
				}
			case 1:
				if len(handles) > 0 {
					h := handles[rng.Intn(len(handles))]
					if s.StillValid(h) {
						s.Release(h, rng.Intn(2) == 0)
					}
				}
			case 2:
				s.InvalidateKey(uint64(rng.Intn(10)))
			}
			if s.Len() > 4 || s.Len() != len(s.Keys()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: accounting conservation — every allocation is eventually
// disposed exactly once: live + committed + squashed + replaced + flushed
// equals allocs.
func TestDispositionConservationProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := mk(3, Replace)
		var handles []Handle
		for i := 0; i < int(nOps); i++ {
			if rng.Intn(2) == 0 {
				// Unique keys so refcount sharing never merges allocs.
				h, ok, _ := s.Alloc(uint64(i)+1000, uint64(i), 0, Payload{})
				if ok {
					handles = append(handles, h)
				}
			} else if len(handles) > 0 {
				h := handles[rng.Intn(len(handles))]
				if s.StillValid(h) {
					s.Release(h, rng.Intn(2) == 0)
				}
			}
		}
		st := s.Stats
		disposed := st.Committed + st.Squashed + st.Replaced + st.Flushes
		return st.Allocs == disposed+uint64(s.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
