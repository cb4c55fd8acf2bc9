package core

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"safespec/internal/asm"
	"safespec/internal/isa"
	"safespec/internal/mem"
)

// imageCached reports whether the image cache holds an entry under key.
func imageCached(key weak.Pointer[isa.Program]) bool {
	images.Lock()
	defer images.Unlock()
	_, ok := images.byProg[key]
	return ok
}

// TestImageFreedWithProgram: a program's cached image lives only as long
// as the program; once nothing references the program, its entry goes.
func TestImageFreedWithProgram(t *testing.T) {
	prog := tiny()
	key := weak.Make(prog)
	if r := Run(Baseline(), prog); r.Committed == 0 {
		t.Fatal("program did not run")
	}
	if !imageCached(key) {
		t.Fatal("running a program did not cache its image")
	}
	// A released simulator still references the program from the pool,
	// which the GC empties.
	sim := Acquire(WFC(), prog)
	sim.Run()
	sim.Release()
	prog = nil
	deadline := time.Now().Add(10 * time.Second)
	for imageCached(key) {
		if time.Now().After(deadline) {
			t.Fatal("image cache entry outlived its program")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestImagesNeverWriteProgramPages: a program's image aliases its data
// pages instead of copying them, so every simulator must copy a page before
// its first store to it. (The kernels store only to their scratch region,
// never to a data page, so the program here is built for the purpose.)
// After a run that overwrites words of its data page, the program's pages
// are unchanged word for word, and a second simulator on the same image
// still reads the original words.
func TestImagesNeverWriteProgramPages(t *testing.T) {
	const page = 0x0010_0000
	b := asm.NewBuilder()
	for i := range 8 {
		b.Data(page+uint64(i)*64, int64(i+1))
	}
	b.Movi(isa.T0, page)
	b.Movi(isa.T1, 99)
	for i := range 4 {
		b.Store(isa.T1, isa.T0, int64(i)*64)
	}
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int64, len(prog.Pages))
	for i, p := range prog.Pages {
		want[i] = slices.Clone(p.Words)
	}
	// differing counts the words m reads differently from want.
	differing := func(m *mem.Memory) int {
		n := 0
		for i, p := range prog.Pages {
			for j, v := range want[i] {
				got, f := m.Read(p.VA+uint64(j)*8, true)
				if f != mem.FaultNone {
					t.Fatalf("reading %#x: %v", p.VA+uint64(j)*8, f)
				}
				if got != v {
					n++
				}
			}
		}
		return n
	}

	for _, cfg := range []Config{Baseline(), WFC()} {
		a := New(cfg, prog)
		a.Run()
		if n := differing(a.CPU().Mem()); n != 4 {
			t.Fatalf("%v: the run changed %d words of its data page, want 4", cfg.Pipeline.Mode, n)
		}
		for i, p := range prog.Pages {
			if !slices.Equal(p.Words, want[i]) {
				t.Errorf("%v: the run wrote its program's data page %#x", cfg.Pipeline.Mode, p.VA)
			}
		}
		if n := differing(New(Baseline(), prog).CPU().Mem()); n != 0 {
			t.Errorf("%v: a second simulator on the image reads %d changed words", cfg.Pipeline.Mode, n)
		}
	}
}
