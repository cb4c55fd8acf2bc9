package workloads

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safespec/internal/asm"
	"safespec/internal/isa"
)

// TestProgramMemoization: every caller of the same (bench, seed, threads)
// must observe one canonical *isa.Program — the stable pointer is what keys
// the simulator's shared memory image, built once per program instead of
// per job — and the memoized build must equal a fresh one exactly.
func TestProgramMemoization(t *testing.T) {
	a, err := Program("gcc", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Program("gcc", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (bench, seed, threads) returned distinct programs")
	}

	w, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if fresh := w.Build(); !reflect.DeepEqual(a, fresh) {
		t.Error("memoized program differs from a fresh build")
	}

	// A seed override is a different program; the default seed requested
	// explicitly is the same entry as seed 0.
	seeded, err := Program("gcc", 12345, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seeded == a {
		t.Error("seed override returned the default-seed program")
	}
	explicit, err := Program("gcc", w.Spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if explicit != a {
		t.Error("explicitly-passed default seed missed the seed-0 cache entry")
	}

	// The thread count is part of the cache key: SMT and single-thread
	// requests must never alias, and thread counts below 2 normalize to 1.
	smt, err := Program("gcc", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if smt == a {
		t.Error("threads=2 aliased the threads=1 cache entry")
	}
	zero, err := Program("gcc", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero != a {
		t.Error("threads=0 did not normalize onto the threads=1 entry")
	}

	if _, err := Program("no-such-bench", 0, 1); err == nil {
		t.Error("unknown benchmark did not error")
	}
}

// TestRegisterExtraBench: a registered kernel resolves through Registered
// and Program, is memoized per thread count, and does not leak into the
// SPEC-like registry.
func TestRegisterExtraBench(t *testing.T) {
	name := "memo-test-extra"
	Register(name, func(threads int) (*isa.Program, error) {
		b := ByNameMust(t, "exchange2")
		return b.Build(), nil
	})
	if !Registered(name) {
		t.Fatal("registered bench not visible through Registered")
	}
	if Registered("definitely-not-registered") {
		t.Fatal("unknown name reported as registered")
	}
	p1, err := Program(name, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p1again, err := Program(name, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p1again {
		t.Error("registered bench not memoized")
	}
	p2, err := Program(name, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Error("registered bench aliased across thread counts")
	}
	if _, err := ByName(name); err == nil {
		t.Error("registered bench leaked into the SPEC-like registry")
	}
}

var singleFlightRuns atomic.Int32

// TestProgramSingleFlight: concurrent first requests for one key build
// the program once and all receive that build; a failed build is not
// cached, so the next request builds again.
func TestProgramSingleFlight(t *testing.T) {
	// Fresh names on every run: the memo outlives a test run under -count.
	run := singleFlightRuns.Add(1)
	name := fmt.Sprintf("memo-test-single-flight-%d", run)
	var builds atomic.Int32
	Register(name, func(threads int) (*isa.Program, error) {
		if builds.Add(1) == 1 {
			time.Sleep(20 * time.Millisecond) // let every caller arrive
		}
		b := asm.NewBuilder()
		b.Halt()
		return b.Build()
	})
	const callers = 8
	got := make([]*isa.Program, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := Program(name, 0, 1)
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d concurrent callers built the program %d times, want once", callers, n)
	}
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, p, got[0])
		}
	}

	failing := fmt.Sprintf("memo-test-failing-%d", run)
	fail := true
	Register(failing, func(threads int) (*isa.Program, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return got[0], nil
	})
	if _, err := Program(failing, 0, 1); err == nil {
		t.Fatal("failing build did not error")
	}
	fail = false
	if p, err := Program(failing, 0, 1); err != nil || p != got[0] {
		t.Errorf("build after a failure = %p, %v: the error was cached", p, err)
	}
}

// TestProgramBuildFootprint guards the cost of building the largest
// kernel: mcf's 4 MiB pointer-chase table goes straight into dense data
// pages, so a build allocates about three copies of it, not a hash map
// entry per word.
func TestProgramBuildFootprint(t *testing.T) {
	s := ByNameMust(t, "mcf").Spec
	s.Seed = 424242 // a seed no other test builds
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prog := s.Build()
	runtime.ReadMemStats(&after)
	if len(prog.Pages) == 0 {
		t.Fatal("mcf has no data pages")
	}
	const limit = 16 << 20
	if d := after.TotalAlloc - before.TotalAlloc; d > limit {
		t.Errorf("building mcf allocated %.1f MB, want <= %d MB", float64(d)/(1<<20), limit>>20)
	}
}

// BenchmarkBuildMCF times one build of the largest kernel.
func BenchmarkBuildMCF(b *testing.B) {
	s, err := ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		s.Build()
	}
}

// ByNameMust is a test helper fetching a workload or failing.
func ByNameMust(t *testing.T, name string) Workload {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
