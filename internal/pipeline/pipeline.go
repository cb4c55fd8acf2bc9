// Package pipeline implements the out-of-order core of the SafeSpec
// simulator: a 6-wide fetch/dispatch/issue/commit machine with a 224-entry
// reorder buffer, 96-entry issue window, 72/56-entry load/store queues,
// branch-mask based selective squash, precise faults at commit, and —
// under SafeSpec modes — shadow-state allocation, motion and annulment
// exactly as Section III/IV of the paper describes.
//
// The simulator is cycle-level: every cycle runs commit, writeback/issue,
// dispatch and fetch stages over the reorder buffer. Architectural values
// flow through ROB tags (implicit register renaming); timing flows through
// the cache/TLB/shadow models in MemSystem.
//
// The core supports SMT: Config.Threads hardware threads share the caches,
// TLBs, branch-predictor tables and the stage widths, while every thread
// owns its architectural registers, its static partition of the ROB/IQ/LSQ
// capacity, its front end (PC, fetch ring, RAS) and — crucially for
// SafeSpec — its own shadow structures. All per-thread state lives in the
// thread struct below; a single-thread core is the exact machine this
// package always modeled.
package pipeline

import (
	"fmt"
	"io"

	"safespec/internal/bpred"
	"safespec/internal/cache"
	"safespec/internal/isa"
	"safespec/internal/mem"
	"safespec/internal/shadow"
	"safespec/internal/tlb"
)

// Config parameterizes the core. Zero values are replaced by the paper's
// Skylake-like defaults (Table I) via Normalize.
type Config struct {
	// Widths (Table I: 6-way issue, up to 6 micro-ops commit per cycle).
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int

	// Structure sizes (Table I).
	ROBSize int // 224
	IQSize  int // 96
	LDQSize int // 72
	STQSize int // 56

	// MaxBranchTags bounds the number of unresolved predicted branches in
	// flight (checkpoint count).
	MaxBranchTags int

	// RedirectPenalty is the front-end refill delay after a squash.
	RedirectPenalty int
	// WalkerLatency is the fixed page-walk overhead.
	WalkerLatency int
	// StoreForwardLatency is the store-to-load forwarding time.
	StoreForwardLatency int

	// Threads is the number of hardware threads (SMT contexts) sharing the
	// core. The zero value means one; it is deliberately NOT normalized to
	// 1, so single-thread configurations marshal exactly as they did before
	// SMT existed and sweep job hashes — and therefore warm result caches —
	// stay stable. Use NumThreads for the effective count.
	Threads int `json:",omitempty"`

	// Mode selects baseline / SafeSpec-WFB / SafeSpec-WFC.
	Mode Mode
	// FaultsReturnData models Meltdown-vulnerable data forwarding on
	// permission faults (Intel-like; default true).
	FaultsReturnData bool

	// Bpred, Hier, ITLB, DTLB configure the predictor and memory system.
	Bpred bpred.Config
	Hier  cache.HierarchyConfig
	ITLB  tlb.Config
	DTLB  tlb.Config

	// Shadow policies (used when Mode.SafeSpec()). Under SMT each thread
	// gets its own structures at these sizes.
	ShadowD    shadow.Policy
	ShadowI    shadow.Policy
	ShadowDTLB shadow.Policy
	ShadowITLB shadow.Policy

	// Run limits.
	MaxCycles uint64
	MaxInstrs uint64

	// DetectAnomalies enables the Section VII attack detector: per-cycle
	// watchdogs on the data-side shadow structures that flag abnormal
	// occupancy growth (the signature of a transient speculation attack
	// trying to create contention).
	DetectAnomalies bool
}

// NumThreads returns the effective hardware-thread count: Threads with a
// floor of one and a cap that keeps every thread's static ROB partition
// usable.
func (c Config) NumThreads() int {
	n := c.Threads
	if n < 2 {
		return 1
	}
	if n > 8 {
		n = 8
	}
	if c.ROBSize > 0 && n > c.ROBSize/8 && c.ROBSize/8 >= 2 {
		n = c.ROBSize / 8
	}
	return n
}

// Normalize fills unset fields with the paper's defaults and returns the
// completed config. Threads is left alone: zero encodes "one thread" (see
// the field comment).
func (c Config) Normalize() Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.FetchWidth, 6)
	def(&c.DispatchWidth, 6)
	def(&c.IssueWidth, 6)
	def(&c.CommitWidth, 6)
	def(&c.ROBSize, 224)
	def(&c.IQSize, 96)
	def(&c.LDQSize, 72)
	def(&c.STQSize, 56)
	def(&c.MaxBranchTags, 64)
	def(&c.RedirectPenalty, 3)
	def(&c.WalkerLatency, 5)
	def(&c.StoreForwardLatency, 5)
	if c.Bpred == (bpred.Config{}) {
		c.Bpred = bpred.DefaultConfig()
	}
	if c.Hier.MemLatency == 0 {
		c.Hier = cache.SkylakeHierarchy()
	}
	if c.ITLB.Entries == 0 {
		c.ITLB = tlb.SkylakeITLB()
	}
	if c.DTLB.Entries == 0 {
		c.DTLB = tlb.SkylakeDTLB()
	}
	if c.ShadowD.Entries == 0 {
		c.ShadowD = shadow.Policy{Name: "shadow-dcache", Entries: c.LDQSize}
	}
	if c.ShadowI.Entries == 0 {
		c.ShadowI = shadow.Policy{Name: "shadow-icache", Entries: c.ROBSize}
	}
	if c.ShadowDTLB.Entries == 0 {
		c.ShadowDTLB = shadow.Policy{Name: "shadow-dtlb", Entries: c.LDQSize}
	}
	if c.ShadowITLB.Entries == 0 {
		c.ShadowITLB = shadow.Policy{Name: "shadow-itlb", Entries: c.ROBSize}
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 50_000_000
	}
	if c.MaxInstrs == 0 {
		c.MaxInstrs = 5_000_000
	}
	return c
}

type entryState uint8

const (
	stWait entryState = iota // dispatched, waiting for operands / retry
	stExec                   // executing, completes at completeAt
	stDone                   // result available, ready to commit
)

// renameRef points at an in-flight producer.
type renameRef struct {
	has bool
	idx int
	seq uint64
}

// entry is one reorder-buffer slot.
type entry struct {
	seq uint64
	pc  int
	in  isa.Instr

	state      entryState
	completeAt uint64
	val        int64

	// Operand renaming captured at dispatch.
	reg1, reg2 isa.Reg
	src1, src2 renameRef

	// Branch state.
	mask         uint64 // unresolved older branch tags
	tagBit       uint64 // this entry's own tag (predicted branches)
	predTaken    bool
	predTarget   int
	actualTaken  bool
	actualTarget int
	histSnap     uint64
	rasTop       int
	rasSnap      []int

	// Memory state.
	isLoad, isStore bool
	addrReady       bool
	va, pa          uint64
	sdata           int64

	// Fault raised at commit.
	fault mem.Fault

	// Shadow handles owned by this instruction: dHandles[:nDH] holds at
	// most one fetch-transferred set (iTLB-walk PTE lines) plus one data
	// access's worth, inline so dispatch/issue never allocate.
	dHandles   [2 * maxAccessDH]shadow.Handle
	nDH        int
	dtlbHandle shadow.Handle
	iHandle    shadow.Handle
	itlbHandle shadow.Handle
}

// dhs returns the owned shadow D-cache handles as a slice view.
func (e *entry) dhs() []shadow.Handle { return e.dHandles[:e.nDH] }

// addDHs appends acquired shadow D-cache handles to the entry's inline set.
func (e *entry) addDHs(hs []shadow.Handle) {
	e.nDH += copy(e.dHandles[e.nDH:], hs)
}

// fetchRec is one fetched-but-not-dispatched instruction.
type fetchRec struct {
	pc         int
	in         isa.Instr
	predicted  bool // consults the predictor (can mispredict)
	predTaken  bool
	predTarget int
	histSnap   uint64
	rasTop     int
	rasSnap    []int
	iHandle    shadow.Handle
	itlbHandle shadow.Handle
	// dHandles[:nDH] holds shadow D-cache entries from the line's iTLB-walk
	// PTE reads; they transfer to the first dispatched instruction.
	dHandles [maxAccessDH]shadow.Handle
	nDH      int
}

// thread holds all core state that is architecturally private to one
// hardware thread: registers and rename map, the thread's static ROB
// partition, its share of the IQ/LSQ/branch-tag capacity, the front end
// (PC, fetch ring, RAS snapshot pool), the event-scheduler bitmaps and
// completion wheel over its partition, and — under SafeSpec — its shadow
// structures and anomaly detectors. Everything else (caches, TLBs,
// predictor tables, stage widths) is shared across threads.
type thread struct {
	id int

	// ms is this thread's memory-system view: committed structures shared
	// with every sibling, shadow structures private. bp likewise shares the
	// predictor tables while keeping history/RAS/stats private.
	ms *MemSystem
	bp *bpred.Predictor

	regs [isa.RegCount]int64
	renm [isa.RegCount]renameRef

	rob   []entry
	head  int
	count int

	seqCtr      uint64
	iqCount     int
	ldqCount    int
	stqCount    int
	activeTags  uint64
	fenceActive int

	// Static partition shares of the shared structures (full capacity for a
	// single-thread core).
	iqMax, ldqMax, stqMax, tagsMax int

	fetchPC         int
	fetchValid      bool
	fetchStallUntil uint64
	// fetchBuf is a fixed-capacity ring (fbHead/fbLen) sized at build time:
	// the front end holds at most two dispatch groups plus one fetch group,
	// so the buffer never reallocates.
	fetchBuf        []fetchRec
	fbHead, fbLen   int
	lastFetchLine   uint64
	lastFetchPALine uint64
	pendingIH       shadow.Handle
	pendingITLBH    shadow.Handle
	pendingDH       [maxAccessDH]shadow.Handle
	nPendingDH      int

	// rasFree recycles RAS snapshot buffers (one live per in-flight
	// predicted branch), so prediction allocates nothing in steady state.
	rasFree [][]int

	// Event-driven scheduler state (sched.go) over this thread's ROB
	// partition: slot bitmaps for ready and completed work, per-producer
	// wakeup rows, the in-flight store bitmap, and the completion timing
	// wheel.
	schedWords  int
	readyMask   []uint64
	compMask    []uint64
	storeMask   []uint64
	waiters     []uint64
	bucketHead  []int32
	bucketOcc   []uint64
	wheelNext   []int32
	wheelPrev   []int32
	wheelBucket []int32
	wheelCount  int
	overflow    []int32

	// halted marks this thread finished (halt committed, or its pipeline
	// drained with nowhere to fetch from).
	halted bool

	// detD / detDTLB are the Section VII anomaly detectors over this
	// thread's data-side shadows (nil unless Config.DetectAnomalies is set
	// in a SafeSpec mode).
	detD, detDTLB *shadow.Detector

	// st accumulates this thread's share of the run statistics (exported
	// via Stats.PerThread for SMT runs).
	st ThreadStats
}

// CPU is the simulated core bound to one program.
type CPU struct {
	cfg  Config
	prog *isa.Program
	// ms / bp alias thread 0's views for the accessor surface (Mem, MemSys,
	// Predictor) and as the home of the shared committed structures.
	ms *MemSystem
	bp *bpred.Predictor

	// ths holds the hardware threads; len(ths) == cfg.NumThreads().
	ths []thread

	// refSched selects the reference O(ROB) scan scheduler instead of the
	// event-driven one (differential-testing hook).
	refSched bool

	cycle uint64
	// halted reports the whole core stopped (every thread halted).
	halted bool
	// active records whether any stage changed state this cycle; when
	// false the core can fast-forward to the next scheduled event.
	active bool
	// trace, when non-nil, receives per-event debug lines.
	trace io.Writer

	// St accumulates run statistics across all threads.
	St Stats

	// sampleOcc enables per-cycle shadow occupancy sampling.
	sampleOcc bool

	// intro, when non-nil, receives the deep counters and occupancy
	// samples behind -introspect (see introspect.go). Guarded like trace.
	intro *Introspection
}

// New builds a CPU for prog with the given configuration, loading the
// program image (code pages, data pages, declared regions) into a fresh
// memory.
func New(cfg Config, prog *isa.Program) *CPU {
	return NewWith(cfg, prog, BuildMemory(prog))
}

// BuildMemory loads prog's image (code pages, data pages, declared
// regions) into a fresh architectural memory that owns all its frames.
// Callers that run a program many times build it once, Freeze it into a
// mem.Image and load that image into each run's memory instead.
func BuildMemory(prog *isa.Program) *mem.Memory {
	m := mem.New()
	// Map the code region (user-readable: fetch is a user access).
	codeBytes := uint64(len(prog.Code)) * isa.BytesPerInstr
	for va := isa.CodeBase; va < isa.CodeBase+codeBytes+mem.PageSize; va += mem.PageSize {
		m.EnsureMapped(va, mem.PermUser|mem.PermKernel)
	}
	for _, r := range prog.Regions {
		perm := mem.Perm(mem.PermUser | mem.PermKernel)
		if r.Kernel {
			perm = mem.PermKernel
		}
		for va := r.Base; va < r.Base+r.Size+mem.PageSize-1; va += mem.PageSize {
			m.EnsureMapped(va, perm)
		}
	}
	// Map the user data pages no region covers, then the kernel pages
	// (remapping a region's page kernel-only), each in ascending VA order,
	// so the frame layout is fixed; then fill each page with one copy.
	for _, p := range prog.Pages {
		if !p.Kernel {
			m.EnsureMapped(p.VA, mem.PermUser|mem.PermKernel)
		}
	}
	for _, p := range prog.Pages {
		if p.Kernel {
			m.Map(p.VA, mem.PermKernel)
		}
	}
	for _, p := range prog.Pages {
		m.FillPage(p.VA, p.Words)
	}
	return m
}

// NewWith builds a CPU for prog around a preloaded memory (see BuildMemory).
func NewWith(cfg Config, prog *isa.Program, m *mem.Memory) *CPU {
	c := &CPU{}
	c.Reset(cfg, prog, m)
	return c
}

// Reset rebinds the CPU to (cfg, prog, m) as if freshly constructed,
// reusing every allocated structure whose geometry is unchanged: the ROB
// partitions and fetch rings, the cache hierarchy, TLBs, branch predictor
// and shadow structures are cleared in place rather than reallocated. m
// must be a memory holding prog's loaded image (a fresh BuildMemory result,
// or a memory freshly loaded from prog's frozen image). A reset CPU
// produces results identical to a new one; sweep executors rely on that to
// reuse one simulator per goroutine across cells.
func (c *CPU) Reset(cfg Config, prog *isa.Program, m *mem.Memory) {
	cfg = cfg.Normalize()
	old := c.cfg // zero value on first use
	nT := cfg.NumThreads()

	// Shared committed structures live in thread 0's MemSystem view.
	if c.ms == nil {
		c.ms = &MemSystem{}
	}
	ms := c.ms
	ms.Mode = cfg.Mode
	ms.Mem = m
	if ms.Hier != nil && old.Hier == cfg.Hier {
		ms.Hier.Reset()
	} else {
		ms.Hier = cache.NewHierarchy(cfg.Hier)
	}
	if ms.ITLB != nil && old.ITLB == cfg.ITLB {
		ms.ITLB.Reset()
	} else {
		ms.ITLB = tlb.New(cfg.ITLB)
	}
	if ms.DTLB != nil && old.DTLB == cfg.DTLB {
		ms.DTLB.Reset()
	} else {
		ms.DTLB = tlb.New(cfg.DTLB)
	}
	if ms.Walk == nil {
		ms.Walk = &tlb.Walker{}
	}
	*ms.Walk = tlb.Walker{Mem: m, BaseLatency: cfg.WalkerLatency}
	ms.FaultsReturnData = cfg.FaultsReturnData
	ms.WalkerLatency = cfg.WalkerLatency
	if cfg.Mode.SafeSpec() {
		ms.ShD = resetShadow(ms.ShD, cfg.ShadowD)
		ms.ShI = resetShadow(ms.ShI, cfg.ShadowI)
		ms.ShDTLB = resetShadow(ms.ShDTLB, cfg.ShadowDTLB)
		ms.ShITLB = resetShadow(ms.ShITLB, cfg.ShadowITLB)
	} else {
		ms.ShD, ms.ShI, ms.ShDTLB, ms.ShITLB = nil, nil, nil, nil
	}

	if c.bp != nil && old.Bpred == cfg.Bpred {
		c.bp.Reset()
	} else {
		c.bp = bpred.New(cfg.Bpred)
	}

	if len(c.ths) != nT {
		c.ths = make([]thread, nT)
	}
	// Static partition: each thread owns ROBSize/n ROB slots and 1/n of the
	// IQ/LSQ/checkpoint capacity. For one thread these are the full sizes.
	robPer := cfg.ROBSize / nT
	iqPer := maxInt(cfg.IQSize/nT, 1)
	ldqPer := maxInt(cfg.LDQSize/nT, 1)
	stqPer := maxInt(cfg.STQSize/nT, 1)
	tagsPer := maxInt(cfg.MaxBranchTags/nT, 1)
	fbCap := 2*cfg.DispatchWidth + cfg.FetchWidth
	c.cfg = cfg

	for i := range c.ths {
		t := &c.ths[i]
		t.id = i
		if i == 0 {
			t.ms = ms
			t.bp = c.bp
		} else {
			t.ms = resetSiblingMS(t.ms, ms, cfg)
			if t.bp != nil && t.bp.SharesTablesWith(c.bp) {
				t.bp.ResetPrivate()
			} else {
				t.bp = c.bp.SiblingView()
			}
		}

		// Recycle RAS snapshots still held by in-flight state from a
		// previous run, then drop the pool if the buffer size changed.
		for j := range t.rob {
			t.putRASBuf(t.rob[j].rasSnap)
			t.rob[j] = entry{}
		}
		for j := range t.fetchBuf {
			t.putRASBuf(t.fetchBuf[j].rasSnap)
			t.fetchBuf[j] = fetchRec{}
		}
		if old.Bpred.RASEntries != cfg.Bpred.RASEntries {
			t.rasFree = nil
		}
		if len(t.rob) != robPer {
			t.rob = make([]entry, robPer)
		}
		if len(t.fetchBuf) != fbCap {
			t.fetchBuf = make([]fetchRec, fbCap)
		}
		t.iqMax, t.ldqMax, t.stqMax, t.tagsMax = iqPer, ldqPer, stqPer, tagsPer
		c.schedReset(t)

		t.regs = [isa.RegCount]int64{}
		t.renm = [isa.RegCount]renameRef{}
		t.head, t.count = 0, 0
		t.seqCtr, t.iqCount, t.ldqCount, t.stqCount = 0, 0, 0, 0
		t.activeTags, t.fenceActive = 0, 0
		t.fetchPC = prog.Entry
		if t.id < len(prog.ThreadEntries) {
			t.fetchPC = prog.ThreadEntries[t.id]
		}
		t.fetchValid = true
		t.fetchStallUntil = 0
		t.fbHead, t.fbLen = 0, 0
		t.lastFetchLine = ^uint64(0)
		t.lastFetchPALine = 0
		t.pendingIH, t.pendingITLBH = shadow.Handle{}, shadow.Handle{}
		t.nPendingDH = 0
		t.halted = false
		t.st = ThreadStats{}

		if cfg.DetectAnomalies && cfg.Mode.SafeSpec() {
			// Floors at 1/4 of capacity: benign 99.99th-percentile occupancy
			// sits well below that (Figures 6-9), a contention attack must
			// exceed it.
			t.detD = shadow.NewDetector(cfg.ShadowD.Entries/4, 4, 1024)
			t.detDTLB = shadow.NewDetector(cfg.ShadowDTLB.Entries/4, 4, 1024)
		} else {
			t.detD, t.detDTLB = nil, nil
		}
	}

	c.prog = prog
	c.cycle, c.halted, c.active = 0, false, false
	c.trace = nil
	c.St = Stats{}
	c.sampleOcc = false
	c.intro = nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// resetSiblingMS (re)builds a sibling hardware thread's memory-system view:
// the committed structures — memory, cache hierarchy, TLBs, page walker —
// are shared with the primary view, while the shadow structures are private
// to the thread (SafeSpec speculative state is per-context by design).
func resetSiblingMS(t *MemSystem, primary *MemSystem, cfg Config) *MemSystem {
	if t == nil {
		t = &MemSystem{}
	}
	t.Mode = primary.Mode
	t.Mem = primary.Mem
	t.Hier = primary.Hier
	t.ITLB = primary.ITLB
	t.DTLB = primary.DTLB
	t.Walk = primary.Walk
	t.FaultsReturnData = primary.FaultsReturnData
	t.WalkerLatency = primary.WalkerLatency
	if cfg.Mode.SafeSpec() {
		t.ShD = resetShadow(t.ShD, cfg.ShadowD)
		t.ShI = resetShadow(t.ShI, cfg.ShadowI)
		t.ShDTLB = resetShadow(t.ShDTLB, cfg.ShadowDTLB)
		t.ShITLB = resetShadow(t.ShITLB, cfg.ShadowITLB)
	} else {
		t.ShD, t.ShI, t.ShDTLB, t.ShITLB = nil, nil, nil, nil
	}
	return t
}

// resetShadow clears s in place when its policy matches, detaching any
// occupancy histogram so each run samples into a fresh one; otherwise it
// builds a new structure.
func resetShadow(s *shadow.Structure, policy shadow.Policy) *shadow.Structure {
	if s != nil && s.Policy() == policy {
		s.Reset()
		s.Occupancy = nil
		return s
	}
	return shadow.New(policy)
}

// Detectors returns thread 0's anomaly detectors (nil when disabled).
func (c *CPU) Detectors() (d, dtlb *shadow.Detector) {
	return c.ths[0].detD, c.ths[0].detDTLB
}

// Mem exposes the architectural memory (examples and attacks read results
// out of it after a run).
func (c *CPU) Mem() *mem.Memory { return c.ms.Mem }

// MemSys exposes thread 0's memory system (tests inspect cache/shadow
// state).
func (c *CPU) MemSys() *MemSystem { return c.ms }

// MemSysOf exposes the given thread's memory-system view.
func (c *CPU) MemSysOf(tid int) *MemSystem { return c.ths[tid].ms }

// Predictor exposes thread 0's branch predictor view (attack helpers poison
// the shared tables through it).
func (c *CPU) Predictor() *bpred.Predictor { return c.bp }

// PredictorOf exposes the given thread's predictor view. All views share
// the PHT and BTB tables.
func (c *CPU) PredictorOf(tid int) *bpred.Predictor { return c.ths[tid].bp }

// Threads returns the number of hardware threads of this core.
func (c *CPU) Threads() int { return len(c.ths) }

// Reg returns the committed architectural value of r on thread 0.
func (c *CPU) Reg(r isa.Reg) int64 { return c.ths[0].regs[r] }

// RegOf returns the committed architectural value of r on thread tid.
func (c *CPU) RegOf(tid int, r isa.Reg) int64 { return c.ths[tid].regs[r] }

// Cycle returns the current cycle count.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Halted reports whether every thread has stopped.
func (c *CPU) Halted() bool { return c.halted }

// ThreadHalted reports whether thread tid has stopped.
func (c *CPU) ThreadHalted(tid int) bool { return c.ths[tid].halted }

// EnableOccupancySampling attaches occupancy histograms (sized to each
// structure's capacity) to every thread's shadow structures and samples
// them every cycle. Call before Run. No-op in baseline mode.
func (c *CPU) EnableOccupancySampling() {
	if !c.cfg.Mode.SafeSpec() {
		return
	}
	c.sampleOcc = true
	for i := range c.ths {
		ms := c.ths[i].ms
		attach(ms.ShD)
		attach(ms.ShI)
		attach(ms.ShDTLB)
		attach(ms.ShITLB)
	}
}

// Run executes until the program halts or a run limit is reached. It
// returns the accumulated statistics.
func (c *CPU) Run() *Stats {
	for !c.halted && c.cycle < c.cfg.MaxCycles && c.St.Committed < c.cfg.MaxInstrs {
		c.Step()
	}
	c.finalizeStats()
	return &c.St
}

// Step advances the core by one cycle, fast-forwarding over idle cycles
// (all in-flight operations waiting on memory, nothing to fetch or commit)
// to keep simulation time proportional to activity rather than latency.
//
// SMT interleave policy (deterministic): the commit, execute and dispatch
// stages share their widths across threads, visiting threads round-robin
// starting at cycle mod n; fetch is fully owned by thread cycle mod n each
// cycle. With one thread every rotation degenerates to the original
// single-thread stage order.
func (c *CPU) Step() {
	c.cycle++
	c.St.Cycles++
	c.active = false
	n := len(c.ths)
	start := 0
	if n > 1 {
		start = int(c.cycle % uint64(n))
	}

	commitBudget := c.cfg.CommitWidth
	for k := 0; k < n; k++ {
		t := &c.ths[(start+k)%n]
		if !t.halted {
			c.commit(t, &commitBudget)
		}
	}
	if c.refreshHalted() {
		return
	}

	issued, loads, stores := 0, 0, 0
	for k := 0; k < n; k++ {
		t := &c.ths[(start+k)%n]
		if !t.halted {
			c.execute(t, &issued, &loads, &stores)
		}
	}
	dispatchBudget := c.cfg.DispatchWidth
	for k := 0; k < n; k++ {
		t := &c.ths[(start+k)%n]
		if !t.halted {
			c.dispatch(t, &dispatchBudget)
		}
	}
	ft := &c.ths[start]
	if !ft.halted {
		c.fetch(ft)
	}

	if c.intro != nil {
		c.sampleIntrospection()
	}
	for i := range c.ths {
		t := &c.ths[i]
		if c.sampleOcc {
			t.ms.SampleOccupancy()
		}
		if t.detD != nil {
			t.detD.Observe(t.ms.ShD.Len())
			t.detDTLB.Observe(t.ms.ShDTLB.Len())
		}
		// Deadlock backstop: an empty per-thread pipeline with nowhere to
		// fetch from means that thread ran off the end of its code.
		if !t.halted && t.count == 0 && t.fbLen == 0 && !t.fetchValid {
			t.halted = true
		}
	}
	if c.refreshHalted() {
		return
	}
	if !c.active {
		c.fastForward()
	}
}

// refreshHalted recomputes the core-wide halt state (all threads halted).
func (c *CPU) refreshHalted() bool {
	for i := range c.ths {
		if !c.ths[i].halted {
			return false
		}
	}
	c.halted = true
	return true
}

// fastForward jumps the clock to just before the next scheduled event when
// the current cycle saw no state change: the very same stage outcomes would
// repeat every cycle until an execution completes, a front-end stall
// expires, or (under SMT) a runnable thread's next fetch slot comes up. The
// event scheduler peeks each thread's completion wheel; the reference
// scheduler re-scans the windows.
func (c *CPU) fastForward() {
	n := len(c.ths)
	next := c.cfg.MaxCycles
	for i := range c.ths {
		t := &c.ths[i]
		if t.halted {
			continue
		}
		if c.refSched {
			for j := 0; j < t.count; j++ {
				e := &t.rob[t.slot(j)]
				if e.state == stExec && e.completeAt > c.cycle && e.completeAt < next {
					next = e.completeAt
				}
			}
		} else if at, ok := c.wheelPeek(t); ok && at < next {
			next = at
		}
		if !t.fetchValid {
			continue
		}
		if t.fetchStallUntil > c.cycle {
			if cand := alignFetchSlot(t.fetchStallUntil, t.id, n); cand < next {
				next = cand
			}
		} else if n > 1 && t.fbLen < 2*c.cfg.DispatchWidth {
			// A sibling thread that could fetch was simply not the fetch
			// owner this cycle; its next slot is a real event. (With one
			// thread this case cannot coexist with an idle cycle.)
			if cand := alignFetchSlot(c.cycle+1, t.id, n); cand < next {
				next = cand
			}
		}
	}
	c.skipTo(next)
}

// alignFetchSlot rounds base up to the next cycle owned by thread id under
// the round-robin fetch rotation (identity for a single-thread core).
func alignFetchSlot(base uint64, id, n int) uint64 {
	if n <= 1 {
		return base
	}
	r := (uint64(id) + uint64(n) - base%uint64(n)) % uint64(n)
	return base + r
}

// skipTo advances the clock to just before cycle `next`, charging the
// skipped cycles to the occupancy samplers and anomaly detectors in bulk.
func (c *CPU) skipTo(next uint64) {
	if next <= c.cycle+1 {
		return
	}
	skipped := next - c.cycle - 1
	c.cycle += skipped
	c.St.Cycles += skipped
	if c.sampleOcc && c.cfg.Mode.SafeSpec() {
		for i := range c.ths {
			ms := c.ths[i].ms
			ms.ShD.SampleN(skipped)
			ms.ShI.SampleN(skipped)
			ms.ShDTLB.SampleN(skipped)
			ms.ShITLB.SampleN(skipped)
		}
	}
	if in := c.intro; in != nil {
		// Occupancies are constant across a fast-forwarded span; charge the
		// whole span in one bulk observation per histogram.
		rob, iq, wheel := 0, 0, 0
		for i := range c.ths {
			t := &c.ths[i]
			rob += t.count
			iq += t.iqCount
			wheel += t.wheelCount
			if in.ThreadROB != nil {
				in.ThreadROB[i].AddN(t.count, skipped)
				in.ThreadIQ[i].AddN(t.iqCount, skipped)
			}
		}
		in.ROBOccupancy.AddN(rob, skipped)
		in.IQOccupancy.AddN(iq, skipped)
		in.WheelOccupancy.AddN(wheel, skipped)
	}
	for i := range c.ths {
		t := &c.ths[i]
		if t.detD != nil {
			// Occupancy cannot change across skipped cycles, so the detectors
			// take the span in one bulk observation instead of a call per cycle.
			t.detD.ObserveN(t.ms.ShD.Len(), skipped)
			t.detDTLB.ObserveN(t.ms.ShDTLB.Len(), skipped)
		}
	}
}

func attach(s *shadow.Structure) {
	if s.Occupancy == nil {
		s.Occupancy = newOccHist(s.Policy().Entries)
	}
}

// fbNext returns the next free fetch-buffer ring slot (zeroed by the pop
// that vacated it) for in-place construction; fbCommit publishes it. The
// ring is sized so the front end can never overflow it.
func (t *thread) fbNext() *fetchRec {
	s := t.fbHead + t.fbLen
	if n := len(t.fetchBuf); s >= n {
		s -= n
	}
	return &t.fetchBuf[s]
}

// fbCommit appends the record built in the fbNext slot to the ring.
func (t *thread) fbCommit() { t.fbLen++ }

// fbFront returns the oldest buffered fetch record.
func (t *thread) fbFront() *fetchRec { return &t.fetchBuf[t.fbHead] }

// fbPop discards the oldest buffered fetch record.
func (t *thread) fbPop() {
	t.fetchBuf[t.fbHead] = fetchRec{}
	t.fbHead = (t.fbHead + 1) % len(t.fetchBuf)
	t.fbLen--
}

// getRASBuf returns a snapshot buffer of RAS depth, recycling released ones.
func (c *CPU) getRASBuf(t *thread) []int {
	if n := len(t.rasFree); n > 0 {
		buf := t.rasFree[n-1]
		t.rasFree = t.rasFree[:n-1]
		return buf
	}
	return make([]int, c.cfg.Bpred.RASEntries)
}

// putRASBuf recycles a snapshot buffer; nil is ignored.
func (t *thread) putRASBuf(buf []int) {
	if buf != nil {
		t.rasFree = append(t.rasFree, buf)
	}
}

// releaseRASSnap recycles an entry's RAS snapshot after its branch resolved.
func (t *thread) releaseRASSnap(e *entry) {
	if e.rasSnap != nil {
		t.putRASBuf(e.rasSnap)
		e.rasSnap = nil
	}
}

// ordinal returns the position of ROB slot idx relative to head, or -1 if
// the slot is not live.
func (t *thread) ordinal(idx int) int {
	o := idx - t.head
	if o < 0 {
		o += len(t.rob)
	}
	if o >= t.count {
		return -1
	}
	return o
}

// live reports whether slot idx currently holds the entry with sequence seq.
func (t *thread) live(idx int, seq uint64) bool {
	return t.ordinal(idx) >= 0 && t.rob[idx].seq == seq
}

// slot returns the ROB index of the i-th oldest live entry.
func (t *thread) slot(i int) int {
	s := t.head + i
	if n := len(t.rob); s >= n {
		s -= n
	}
	return s
}

// tail returns the ROB index one past the youngest live entry.
func (t *thread) tail() int {
	tl := t.head + t.count
	if n := len(t.rob); tl >= n {
		tl -= n
	}
	return tl
}

// resolveSrc reads an operand: from the committed register file, or from an
// in-flight producer if the rename reference is still live.
func (t *thread) resolveSrc(r isa.Reg, ref renameRef) (int64, bool) {
	if r == isa.Zero {
		return 0, true
	}
	if !ref.has || !t.live(ref.idx, ref.seq) {
		return t.regs[r], true
	}
	p := &t.rob[ref.idx]
	if p.state != stDone {
		return 0, false
	}
	return p.val, true
}

// renameLookup returns the current rename mapping for r.
func (t *thread) renameLookup(r isa.Reg) renameRef {
	if r == isa.Zero {
		return renameRef{}
	}
	ref := t.renm[r]
	if ref.has && t.live(ref.idx, ref.seq) {
		return ref
	}
	return renameRef{}
}

// rebuildRename reconstructs the rename map from the surviving ROB entries
// after a squash.
func (t *thread) rebuildRename() {
	for i := range t.renm {
		t.renm[i] = renameRef{}
	}
	for i := 0; i < t.count; i++ {
		idx := t.slot(i)
		e := &t.rob[idx]
		if e.in.HasDest() {
			t.renm[e.in.Rd] = renameRef{has: true, idx: idx, seq: e.seq}
		}
	}
}

// String summarizes the core state (debug helper).
func (c *CPU) String() string {
	rob, robCap := 0, 0
	for i := range c.ths {
		rob += c.ths[i].count
		robCap += len(c.ths[i].rob)
	}
	return fmt.Sprintf("cpu{cycle=%d threads=%d rob=%d/%d fetchPC=%d committed=%d}",
		c.cycle, len(c.ths), rob, robCap, c.ths[0].fetchPC, c.St.Committed)
}
