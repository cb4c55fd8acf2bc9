package mem

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// buildImage maps user pages at the given VAs, writes vals[i] to the
// first word of page i, and freezes the result.
func buildImage(t *testing.T, pages []uint64, vals []int64) *Image {
	t.Helper()
	m := New()
	for i, va := range pages {
		m.Map(va, PermUser|PermKernel)
		if i < len(vals) {
			if f := m.Write(va, vals[i], true); f != FaultNone {
				t.Fatal(f)
			}
		}
	}
	return m.Freeze()
}

// read returns the word at va, failing the test on a fault.
func read(t *testing.T, m *Memory, va uint64) int64 {
	t.Helper()
	v, f := m.Read(va, true)
	if f != FaultNone {
		t.Fatalf("read %#x: %v", va, f)
	}
	return v
}

// TestCopyOnWriteIsolation: a write through one memory is visible neither
// in a sibling reading the same image nor in the image itself, and a page
// mapped after the load stays private too.
func TestCopyOnWriteIsolation(t *testing.T) {
	img := buildImage(t, []uint64{0x1000, 0x2000}, []int64{11, 22})
	a, b := FromImage(img), FromImage(img)
	if f := a.Write(0x1000, 100, true); f != FaultNone {
		t.Fatal(f)
	}
	if f := a.Write(0x2008, 200, true); f != FaultNone {
		t.Fatal(f)
	}
	a.Map(0x9000, PermUser)

	if got := read(t, a, 0x1000); got != 100 {
		t.Errorf("writer reads %d at 0x1000, want 100", got)
	}
	if got := read(t, b, 0x1000); got != 11 {
		t.Errorf("sibling reads %d at 0x1000, want 11", got)
	}
	if got := read(t, b, 0x2008); got != 0 {
		t.Errorf("sibling reads %d at 0x2008, want 0", got)
	}
	if tr := b.Walk(0x9000); tr.Fault != FaultUnmapped {
		t.Errorf("sibling sees the writer's new mapping: %+v", tr)
	}
	if got := read(t, FromImage(img), 0x1000); got != 11 {
		t.Errorf("image reads %d at 0x1000 after a sibling's write, want 11", got)
	}
}

// TestFreezeKeepsContent: the frozen memory still reads its content and
// copies on write, leaving the image as frozen.
func TestFreezeKeepsContent(t *testing.T) {
	m := New()
	m.Map(0x1000, PermUser)
	m.Write(0x1010, 7, true)
	img := m.Freeze()
	if got := read(t, m, 0x1010); got != 7 {
		t.Fatalf("frozen memory reads %d, want 7", got)
	}
	m.Write(0x1010, 8, true)
	if got := read(t, FromImage(img), 0x1010); got != 7 {
		t.Errorf("write after Freeze reached the image: %d", got)
	}
}

// TestLoadRestoresImage: Load undoes every write since the previous load,
// including words overwritten several times, and reuses the private frames
// it releases instead of allocating new ones.
func TestLoadRestoresImage(t *testing.T) {
	img := buildImage(t, []uint64{0x1000, 0x2000, 0x3000}, []int64{11, 22, 33})
	m := FromImage(img)
	run := func() {
		for i, w := range []struct {
			va uint64
			v  int64
		}{{0x1000, 100}, {0x1000, 200}, {0x2008, 300}, {0x2008, 301}, {0x3000, 400}} {
			if f := m.Write(w.va, w.v, true); f != FaultNone {
				t.Fatalf("write %d: %v", i, f)
			}
		}
	}
	run()
	m.Load(img)
	for _, want := range []struct {
		va uint64
		v  int64
	}{{0x1000, 11}, {0x2008, 0}, {0x3000, 33}} {
		if got := read(t, m, want.va); got != want.v {
			t.Errorf("after Load mem[%#x] = %d, want %d", want.va, got, want.v)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { run(); m.Load(img) }); allocs != 0 {
		t.Errorf("a warm load-and-run cycle allocates %.1f times, want 0", allocs)
	}
}

// TestZeroFrameStaysZero: memories that store all over images with
// untouched pages never write the shared zero frame or the image frames.
func TestZeroFrameStaysZero(t *testing.T) {
	pages := []uint64{0x1000, 0x2000, 0x3000, 0x1000000, 0x1001000}
	img := buildImage(t, pages, []int64{1, 0, 3})
	before := make([][]int64, len(img.frames))
	for i, f := range img.frames {
		before[i] = slices.Clone(f.words)
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		a, b := FromImage(img), FromImage(img)
		for i := 0; i < 5000; i++ {
			va := pages[rng.Intn(len(pages))] + uint64(rng.Intn(PageSize/8))*8
			a.Write(va, rng.Int63(), true)
			b.Write(va, rng.Int63(), true)
		}
		a.Load(img)
	}
	if !slices.Equal(zeroFrame[:], make([]int64, len(zeroFrame))) {
		t.Fatal("the shared zero frame was written")
	}
	for i, f := range img.frames {
		if !slices.Equal(f.words, before[i]) {
			t.Fatalf("image frame %d changed under copy-on-write memories", i)
		}
	}
}

// TestImageIsSparse: an image stores its non-zero data frames only, and a
// memory loaded from it reads the shared zero frame everywhere else.
func TestImageIsSparse(t *testing.T) {
	img := buildImage(t, []uint64{0x1000, 0x2000, 0x3000}, []int64{5})
	var tables, data int
	for _, f := range img.frames {
		if len(f.words) == entriesPerL {
			tables++
		} else {
			data++
		}
	}
	if img.slots != 5 || tables != 2 || data != 1 {
		t.Errorf("image of 5 regions stores %d tables and %d data frames, want 2 and 1",
			tables, data)
	}
	m := FromImage(img)
	var zero int
	for _, f := range m.frames {
		if &f[0] == &zeroFrame[0] {
			zero++
		}
	}
	if zero != 2 {
		t.Errorf("loaded memory shares the zero frame in %d regions, want 2", zero)
	}
}

// storedFrames returns the first word of each stored frame of img of the
// given word count, in slot order, as a pointer identifying its storage.
func storedFrames(img *Image, words int) []*int64 {
	var out []*int64
	for _, f := range img.frames {
		if len(f.words) == words {
			out = append(out, &f.words[0])
		}
	}
	return out
}

// TestImagesShareEqualFrames: images with the same mappings share their
// page tables and the data frames whose content they have in common; a
// layout that shifts every frame shares no table.
func TestImagesShareEqualFrames(t *testing.T) {
	layout := []uint64{0x1000, 0x2000, 0x1000000}
	a := buildImage(t, layout, []int64{1, 2, 3})
	b := buildImage(t, layout, []int64{4, 5, 3})
	c := buildImage(t, append([]uint64{0x5000}, layout...), []int64{1, 2, 3})

	ta, tb, tc := storedFrames(a, entriesPerL), storedFrames(b, entriesPerL), storedFrames(c, entriesPerL)
	if len(ta) != 3 {
		t.Fatalf("image has %d page tables, want a root and 2 leaves", len(ta))
	}
	if !slices.Equal(ta, tb) {
		t.Error("same-layout images do not share their page tables")
	}
	for _, p := range tc {
		if slices.Contains(ta, p) {
			t.Error("images with different layouts share a page table")
		}
	}
	da, db := storedFrames(a, PageSize/8), storedFrames(b, PageSize/8)
	if len(da) != 3 || da[0] == db[0] || da[1] == db[1] || da[2] != db[2] {
		t.Errorf("data frames %v and %v: want only the third (equal content) shared", da, db)
	}
	if read(t, FromImage(b), 0x1000) != 4 || read(t, FromImage(a), 0x1000) != 1 {
		t.Error("images sharing frames read each other's data")
	}
}

// TestConcurrentImages: goroutines freezing same-layout images (interning
// their frames) while others copy on write from one shared image each see
// only their own data.
func TestConcurrentImages(t *testing.T) {
	layout := []uint64{0x1000, 0x2000, 0x1000000}
	shared := buildImage(t, layout, []int64{1, 2, 3})
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := int64(100 + g)
			m := New()
			for _, va := range layout {
				m.Map(va, PermUser|PermKernel)
				m.Write(va, v, true)
			}
			own := FromImage(m.Freeze())
			sib := FromImage(shared)
			for i := 0; i < 200; i++ {
				sib.Write(0x2000+uint64(i%512)*8, v, true)
				sib.Load(shared)
			}
			if got, _ := own.Read(0x1000000, true); got != v {
				errs[g] = "own image lost its data"
			}
			if got, _ := sib.Read(0x2000, true); got != 2 {
				errs[g] = "shared image changed under a sibling"
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// TestInternedFramesAreCollected: once no image holds an interned frame,
// its entry leaves the intern map.
func TestInternedFramesAreCollected(t *testing.T) {
	// No other test maps this L1 slot, so no other image has this root.
	img := buildImage(t, []uint64{0xabc_123_000}, []int64{1})
	h := hashWords(img.frames[0].words)
	img = nil
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		interned.Lock()
		_, ok := interned.byHash[h]
		interned.Unlock()
		if !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("interned frame entry outlived every image")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
