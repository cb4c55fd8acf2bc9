package core

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"safespec/internal/isa"
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
