package workloads

import (
	"fmt"
	"sync"

	"safespec/internal/isa"
)

// Workload pairs a benchmark name with its program generator.
type Workload struct {
	// Name is the SPEC2017 benchmark name used in the paper's figures.
	Name string
	// Spec is the kernel parameterization.
	Spec Spec
}

// Build generates the program.
func (w Workload) Build() *isa.Program { return w.Spec.Build() }

// All returns the 21 kernels in the paper's figure order. Working-set sizes
// are powers of two so the generator's index masking covers them uniformly.
// Each kernel's knobs are chosen to mimic the qualitative character of its
// namesake:
//
//   - integer, branchy codes (perlbench, gcc, deepsjeng, xalancbmk) get
//     data-dependent branches and large code footprints;
//   - pointer-chasing codes (mcf, omnetpp) get serialized linked-list
//     traversals over multi-MiB working sets;
//   - FP streaming codes (lbm, bwaves, roms, fotonik3d) get sequential or
//     strided sweeps over large arrays with FP chains;
//   - compute-dense codes (exchange2, namd, imagick, nab) get long ALU/FP
//     sequences over small working sets;
//   - wide-footprint codes (wrf, cam4, pop2, blender, cactuBSSN) get many
//     code blocks and page-spanning accesses.
func All() []Workload {
	mk := func(name string, s Spec) Workload {
		s.Name = name
		s.Seed = int64(len(name))*7919 + 13 // deterministic, per-name
		return Workload{Name: name, Spec: s}
	}
	return []Workload{
		mk("perlbench", Spec{DataBytes: 256 << 10, Pattern: PatternRand, LoadsPerIter: 2,
			StoreEvery: 4, BranchEntropy: 1, IntOps: 3, CodeBlocks: 96, BlockPadLines: 3}),
		mk("mcf", Spec{DataBytes: 4 << 20, Pattern: PatternChase, LoadsPerIter: 2,
			BranchEntropy: 1, IntOps: 1}),
		mk("omnetpp", Spec{DataBytes: 2 << 20, Pattern: PatternChase, LoadsPerIter: 1,
			StoreEvery: 8, BranchEntropy: 2, IntOps: 2, CodeBlocks: 24, BlockPadLines: 2}),
		mk("xalancbmk", Spec{DataBytes: 1 << 20, Pattern: PatternRand, LoadsPerIter: 2,
			BranchEntropy: 2, IntOps: 2, CodeBlocks: 112, BlockPadLines: 3}),
		mk("x264", Spec{DataBytes: 512 << 10, Pattern: PatternSeq, LoadsPerIter: 3,
			StoreEvery: 2, BranchEntropy: 1, IntOps: 2, MulOps: 2, CodeBlocks: 144, BlockPadLines: 4}),
		mk("deepsjeng", Spec{DataBytes: 512 << 10, Pattern: PatternRand, LoadsPerIter: 2,
			BranchEntropy: 2, IntOps: 3, MulOps: 1, CodeBlocks: 32, BlockPadLines: 1}),
		mk("exchange2", Spec{DataBytes: 64 << 10, Pattern: PatternSeq, LoadsPerIter: 1,
			BranchEntropy: 0, IntOps: 8, MulOps: 2}),
		mk("xz", Spec{DataBytes: 1 << 20, Pattern: PatternRand, LoadsPerIter: 2,
			StoreEvery: 3, BranchEntropy: 2, IntOps: 4}),
		mk("bwaves", Spec{DataBytes: 4 << 20, Pattern: PatternSeq, LoadsPerIter: 3,
			StoreEvery: 4, FPOps: 4}),
		mk("cactuBSSN", Spec{DataBytes: 2 << 20, Pattern: PatternStride, Stride: 256,
			LoadsPerIter: 2, StoreEvery: 4, FPOps: 6, CodeBlocks: 96, BlockPadLines: 4}),
		mk("namd", Spec{DataBytes: 128 << 10, Pattern: PatternSeq, LoadsPerIter: 1,
			FPOps: 8, MulOps: 1}),
		mk("povray", Spec{DataBytes: 128 << 10, Pattern: PatternRand, LoadsPerIter: 1,
			BranchEntropy: 1, FPOps: 5, CodeBlocks: 48, BlockPadLines: 2}),
		mk("lbm", Spec{DataBytes: 8 << 20, Pattern: PatternSeq, LoadsPerIter: 4,
			StoreEvery: 1, FPOps: 3}),
		mk("wrf", Spec{DataBytes: 2 << 20, Pattern: PatternStride, Stride: 512,
			LoadsPerIter: 2, StoreEvery: 4, FPOps: 4, CodeBlocks: 96, BlockPadLines: 2, PageSpan: 48}),
		mk("blender", Spec{DataBytes: 1 << 20, Pattern: PatternRand, LoadsPerIter: 2,
			BranchEntropy: 1, FPOps: 3, IntOps: 1, CodeBlocks: 40, BlockPadLines: 2}),
		mk("cam4", Spec{DataBytes: 2 << 20, Pattern: PatternStride, Stride: 1024,
			LoadsPerIter: 2, BranchEntropy: 1, FPOps: 4, CodeBlocks: 80, BlockPadLines: 3, PageSpan: 64}),
		mk("pop2", Spec{DataBytes: 2 << 20, Pattern: PatternSeq, LoadsPerIter: 2,
			StoreEvery: 2, FPOps: 4, CodeBlocks: 160, BlockPadLines: 4, PageSpan: 32}),
		mk("imagick", Spec{DataBytes: 256 << 10, Pattern: PatternSeq, LoadsPerIter: 2,
			StoreEvery: 2, FPOps: 6, MulOps: 2, CodeBlocks: 144, BlockPadLines: 4}),
		mk("nab", Spec{DataBytes: 256 << 10, Pattern: PatternRand, LoadsPerIter: 2,
			FPOps: 5, IntOps: 1}),
		mk("fotonik3d", Spec{DataBytes: 4 << 20, Pattern: PatternStride, Stride: 128,
			LoadsPerIter: 3, StoreEvery: 4, FPOps: 4}),
		mk("roms", Spec{DataBytes: 4 << 20, Pattern: PatternSeq, LoadsPerIter: 3,
			StoreEvery: 3, FPOps: 5}),
		mk("gcc", Spec{DataBytes: 1 << 20, Pattern: PatternRand, LoadsPerIter: 2,
			StoreEvery: 5, BranchEntropy: 2, IntOps: 3, CodeBlocks: 160, BlockPadLines: 3}),
	}
}

// ByName returns the workload with the given name.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// extraBenches holds named kernels registered from outside this package —
// attack programs from internal/attacks, which run as ordinary sweep
// benchmarks so security cells flow through the same matrix, result-cache
// and grid machinery as performance cells. A plain registration call (from
// the registering package's init) avoids a workloads -> attacks import,
// which would cycle through the attacks tests.
var extraBenches sync.Map

// Register adds an extra named kernel builder. The builder receives the
// effective hardware-thread count so multi-threaded kernels can lay out
// per-thread entry points; registration replaces any previous builder for
// the name.
func Register(name string, build func(threads int) (*isa.Program, error)) {
	extraBenches.Store(name, build)
}

// Registered reports whether name resolves to a runnable kernel: one of the
// SPEC-like workloads or a registered extra bench.
func Registered(name string) bool {
	if _, ok := extraBenches.Load(name); ok {
		return true
	}
	_, err := ByName(name)
	return err == nil
}

// progKey identifies one memoized program build. The thread count is part
// of the key so SMT and single-thread cells can never alias on a shared
// program pointer even when a kernel lays out per-thread entries.
type progKey struct {
	name    string
	seed    int64
	threads int
}

// progCache memoizes assembled programs per (benchmark, seed): generation
// and assembly of the larger kernels costs more than a short simulation, and
// sweep matrices run the same kernel under several modes and instruction
// budgets. Programs are immutable after Build (the simulator loads their
// image into its own memory and never writes back), so sharing one
// *isa.Program across concurrent jobs is safe — and the stable pointer is
// what keys the simulator's per-program memory image, so the image is
// built once and shared instead of rebuilt per job. The cache holds one entry per (benchmark, seed)
// ever requested; seed fans are small in practice.
var progCache sync.Map

// Program returns the memoized kernel for the named benchmark under the
// given generator seed (0 selects the workload's per-name default) and
// hardware-thread count (values below 2 normalize to 1). All callers of the
// same (name, seed, threads) observe the same *isa.Program.
func Program(name string, seed int64, threads int) (*isa.Program, error) {
	if threads < 2 {
		threads = 1
	}
	if b, ok := extraBenches.Load(name); ok {
		key := progKey{name: name, seed: seed, threads: threads}
		if p, ok := progCache.Load(key); ok {
			return p.(*isa.Program), nil
		}
		p, err := b.(func(int) (*isa.Program, error))(threads)
		if err != nil {
			return nil, fmt.Errorf("workloads: building %s: %w", name, err)
		}
		got, _ := progCache.LoadOrStore(key, p)
		return got.(*isa.Program), nil
	}
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		w.Spec.Seed = seed
	}
	key := progKey{name: name, seed: w.Spec.Seed, threads: threads}
	if p, ok := progCache.Load(key); ok {
		return p.(*isa.Program), nil
	}
	// Concurrent builders may race; LoadOrStore keeps the first, so every
	// caller still agrees on one canonical program per key.
	p, _ := progCache.LoadOrStore(key, w.Build())
	return p.(*isa.Program), nil
}

// Names returns the benchmark names in figure order.
func Names() []string {
	ws := All()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}
