package workloads

import (
	"reflect"
	"testing"

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

// ByNameMust is a test helper fetching a workload or failing.
func ByNameMust(t *testing.T, name string) Workload {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
