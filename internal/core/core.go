// Package core is the public façade of the SafeSpec simulator library. It
// wires the out-of-order pipeline, the memory system and the SafeSpec
// shadow structures into a single Simulator with a small configuration
// surface matching the paper's evaluation setup (Tables I and II), and
// exposes the Results needed to regenerate every figure.
//
// Typical use:
//
//	prog := buildProgram()              // via internal/asm
//	res := core.Run(core.WFC(), prog)   // or core.Baseline(), core.WFB()
//	fmt.Println(res.IPC())
package core

import (
	"fmt"
	"runtime"
	"sync"
	"weak"

	"safespec/internal/isa"
	"safespec/internal/mem"
	"safespec/internal/pipeline"
	"safespec/internal/shadow"
)

// Mode re-exports the protection policy selector.
type Mode = pipeline.Mode

// Protection modes.
const (
	ModeBaseline = pipeline.ModeBaseline
	ModeWFB      = pipeline.ModeWFB
	ModeWFC      = pipeline.ModeWFC
)

// Config is the simulator configuration. Construct via Baseline, WFB, WFC,
// or DefaultConfig and adjust.
type Config struct {
	// Pipeline carries the full core configuration (Table I defaults are
	// applied to zero fields).
	Pipeline pipeline.Config
	// SampleOccupancy enables the per-cycle shadow occupancy histograms
	// used by the Figure 6-9 sizing study.
	SampleOccupancy bool
}

// DefaultConfig returns the paper's simulated Skylake in the given mode.
func DefaultConfig(mode Mode) Config {
	cfg := Config{}
	cfg.Pipeline.Mode = mode
	cfg.Pipeline.FaultsReturnData = true
	cfg.Pipeline = cfg.Pipeline.Normalize()
	return cfg
}

// Baseline returns the unprotected out-of-order configuration.
func Baseline() Config { return DefaultConfig(ModeBaseline) }

// WFB returns the SafeSpec wait-for-branch configuration with worst-case
// (Secure) shadow sizing.
func WFB() Config { return DefaultConfig(ModeWFB) }

// WFC returns the SafeSpec wait-for-commit configuration with worst-case
// (Secure) shadow sizing.
func WFC() Config { return DefaultConfig(ModeWFC) }

// WithShadowPolicy returns a copy of cfg with all four shadow policies
// replaced (used by the TSA experiments to shrink the structures and select
// Block/Drop behaviour).
func (c Config) WithShadowPolicy(d, i, dtlb, itlb shadow.Policy) Config {
	c.Pipeline.ShadowD = d
	c.Pipeline.ShadowI = i
	c.Pipeline.ShadowDTLB = dtlb
	c.Pipeline.ShadowITLB = itlb
	return c
}

// WithLimits returns a copy of cfg with run limits set.
func (c Config) WithLimits(maxInstrs, maxCycles uint64) Config {
	c.Pipeline.MaxInstrs = maxInstrs
	c.Pipeline.MaxCycles = maxCycles
	return c
}

// Results wraps the pipeline statistics of one run.
type Results struct {
	*pipeline.Stats
	// Mode records which configuration produced the results.
	Mode Mode
}

// Simulator is a configured core bound to a program. Use New + Run, or the
// package-level Run convenience. A Simulator can be Reset and run again,
// which skips reconstructing the ROB, caches, TLBs, shadow structures and
// predictor tables. Every simulator bound to a program reads the same
// memory image, built once per program and shared copy-on-write, so a Reset
// — even one that switches program — never rebuilds page tables or data
// frames. Sweep cells and attack cells draw simulators from one shared pool
// (Acquire/Release).
type Simulator struct {
	cfg Config
	cpu *pipeline.CPU
	// mem reads through the bound program's image and holds private copies
	// of the frames the last run wrote; Reset hands those copies back as
	// spares by loading the next image.
	mem *mem.Memory
}

// New builds a Simulator for prog under cfg.
func New(cfg Config, prog *isa.Program) *Simulator {
	s := &Simulator{}
	s.Reset(cfg, prog)
	return s
}

// Reset rebinds the simulator to (cfg, prog) as if freshly built by New,
// reusing previously allocated structures wherever the configuration allows.
// Results of a run after Reset are identical to those of a fresh simulator.
func (s *Simulator) Reset(cfg Config, prog *isa.Program) {
	img := imageOf(prog)
	if s.mem == nil {
		s.mem = mem.FromImage(img)
	} else {
		s.mem.Load(img)
	}
	if s.cpu == nil {
		s.cpu = pipeline.NewWith(cfg.Pipeline, prog, s.mem)
	} else {
		s.cpu.Reset(cfg.Pipeline, prog, s.mem)
	}
	if cfg.SampleOccupancy {
		s.cpu.EnableOccupancySampling()
	}
	s.cfg = cfg
}

// images caches each program's frozen memory image for as long as the
// program itself is reachable: the key is weak, and a cleanup on the
// program removes its entry.
var images = struct {
	sync.Mutex
	byProg map[weak.Pointer[isa.Program]]*imageEntry
}{byProg: map[weak.Pointer[isa.Program]]*imageEntry{}}

// imageEntry builds one program's image once, however many simulators ask
// for it at the same time.
type imageEntry struct {
	once sync.Once
	img  *mem.Image
}

// imageOf returns prog's image, building it on first use.
func imageOf(prog *isa.Program) *mem.Image {
	key := weak.Make(prog)
	images.Lock()
	e, ok := images.byProg[key]
	if !ok {
		e = &imageEntry{}
		images.byProg[key] = e
		runtime.AddCleanup(prog, dropImage, key)
	}
	images.Unlock()
	e.once.Do(func() { e.img = pipeline.BuildMemory(prog).Freeze() })
	if e.img == nil {
		// The first build panicked (a malformed image); fail the same way.
		return pipeline.BuildMemory(prog).Freeze()
	}
	return e.img
}

// dropImage removes the cache entry of a collected program.
func dropImage(key weak.Pointer[isa.Program]) {
	images.Lock()
	delete(images.byProg, key)
	images.Unlock()
}

// pool recycles simulators across cells: Acquire Resets a pooled simulator
// to the next cell's configuration and program. Reset guarantees run-for-run
// identical results, so pooling is invisible in every output.
var pool sync.Pool

// Acquire returns a simulator bound to (cfg, prog) exactly as New would,
// recycling one from the shared pool when available. Hand it back with
// Release once its results have been read.
func Acquire(cfg Config, prog *isa.Program) *Simulator {
	if s, ok := pool.Get().(*Simulator); ok {
		s.Reset(cfg, prog)
		return s
	}
	return New(cfg, prog)
}

// Release returns s to the pool. Everything that aliases s — the raw
// Results of Run (Detach them first), its CPU and its memory — is invalid
// afterwards. A simulator whose Run panicked must not be released: its state
// is suspect, so callers release explicitly rather than with defer.
func (s *Simulator) Release() { pool.Put(s) }

// CPU exposes the underlying core (attack helpers need the predictor and
// memory system).
func (s *Simulator) CPU() *pipeline.CPU { return s.cpu }

// Run executes to completion and returns the results.
func (s *Simulator) Run() *Results {
	st := s.cpu.Run()
	return &Results{Stats: st, Mode: s.cfg.Pipeline.Mode}
}

// Run builds and runs a simulator in one call.
func Run(cfg Config, prog *isa.Program) *Results {
	return New(cfg, prog).Run()
}

// Detach returns a copy of r whose statistics no longer alias the
// simulator's internal accumulator, so the simulator can be Reset and
// reused while the results stay valid. The occupancy histograms are per-run
// objects and transfer ownership to the copy.
func (r *Results) Detach() *Results {
	st := *r.Stats
	return &Results{Stats: &st, Mode: r.Mode}
}

// Summary renders a one-line overview of the results.
func (r *Results) Summary() string {
	return fmt.Sprintf("%s: IPC=%.3f cycles=%d committed=%d mispred=%.4f dMiss=%.4f iMiss=%.4f",
		r.Mode, r.IPC(), r.Cycles, r.Committed,
		r.Bpred.MispredictRate(), r.DReadMissRate(), r.IFetchMissRate())
}
