// Package isa defines the instruction set architecture executed by the
// SafeSpec simulator.
//
// The ISA is a compact 64-bit RISC-like machine language. It is deliberately
// small: the SafeSpec defense and the speculation attacks it closes live in
// the microarchitecture (branch prediction, out-of-order execution, cache and
// TLB fills), not in ISA richness. The ISA carries just enough surface to
// express the paper's workloads and proof-of-concept attacks: ALU arithmetic,
// loads and stores, conditional and indirect control flow, cache-line flush
// (clflush), cycle-counter reads (rdtscp-style timing) and fences.
package isa

import "fmt"

// RegCount is the number of architectural general-purpose registers.
const RegCount = 32

// Reg identifies an architectural register. Register 0 is hardwired to zero,
// like RISC-V's x0: writes to it are discarded and reads return 0.
type Reg uint8

// Conventional register role aliases used by the assembler and workloads.
const (
	Zero Reg = 0 // hardwired zero
	RA   Reg = 1 // return address (written by CALL)
	SP   Reg = 2 // stack pointer (by convention only)
	T0   Reg = 5 // temporaries t0..t6
	T1   Reg = 6
	T2   Reg = 7
	T3   Reg = 8
	T4   Reg = 9
	T5   Reg = 10
	T6   Reg = 11
	A0   Reg = 12 // argument/result registers a0..a7
	A1   Reg = 13
	A2   Reg = 14
	A3   Reg = 15
	A4   Reg = 16
	A5   Reg = 17
	A6   Reg = 18
	A7   Reg = 19
	S0   Reg = 20 // saved s0..s11
	S1   Reg = 21
	S2   Reg = 22
	S3   Reg = 23
	S4   Reg = 24
	S5   Reg = 25
	S6   Reg = 26
	S7   Reg = 27
	S8   Reg = 28
	S9   Reg = 29
	S10  Reg = 30
	S11  Reg = 31
)

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch {
	case r == Zero:
		return "zero"
	case r == RA:
		return "ra"
	case r == SP:
		return "sp"
	case r >= T0 && r <= T6:
		return fmt.Sprintf("t%d", r-T0)
	case r >= A0 && r <= A7:
		return fmt.Sprintf("a%d", r-A0)
	case r >= S0 && r <= S11:
		return fmt.Sprintf("s%d", r-S0)
	default:
		return fmt.Sprintf("x%d", uint8(r))
	}
}

// Op enumerates the operations of the ISA.
type Op uint8

const (
	// OpNop does nothing.
	OpNop Op = iota

	// Integer ALU, register-register: rd = rs1 <op> rs2.
	OpAdd
	OpSub
	OpMul
	OpDiv // rd = rs1 / rs2; division by zero yields 0 (no trap)
	OpRem // rd = rs1 % rs2; modulo by zero yields rs1
	OpAnd
	OpOr
	OpXor
	OpShl // rd = rs1 << (rs2 & 63)
	OpShr // rd = uint64(rs1) >> (rs2 & 63), logical
	OpSra // rd = rs1 >> (rs2 & 63), arithmetic
	OpSlt // rd = 1 if rs1 < rs2 (signed) else 0

	// Integer ALU, register-immediate: rd = rs1 <op> imm.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpShli
	OpShri
	OpSlti

	// OpMovi loads a 64-bit immediate: rd = imm.
	OpMovi

	// Floating-point-class ops. Values are still int64 bit patterns; these
	// exist to model long-latency FP pipelines of SPEC FP codes.
	OpFAdd // 4-cycle latency
	OpFMul // 5-cycle latency
	OpFDiv // 18-cycle latency

	// Memory. Effective address = rs1 + imm. All accesses are 8 bytes,
	// naturally aligned by the assembler's convention (the simulator does
	// not fault on misalignment; the cache maps any byte address to a line).
	OpLoad  // rd = mem[rs1+imm]
	OpStore // mem[rs1+imm] = rs2

	// Control flow. Direct targets are instruction indices (resolved from
	// labels by the assembler).
	OpBeq   // if rs1 == rs2 goto target
	OpBne   // if rs1 != rs2 goto target
	OpBlt   // if rs1 <  rs2 (signed) goto target
	OpBge   // if rs1 >= rs2 (signed) goto target
	OpBltu  // if rs1 <  rs2 (unsigned) goto target
	OpBgeu  // if rs1 >= rs2 (unsigned) goto target
	OpJmp   // goto target
	OpJmpi  // goto rs1+imm (indirect; predicted via BTB)
	OpCall  // ra = return PC; goto target (pushes RAS)
	OpCalli // ra = return PC; goto rs1+imm (indirect call; BTB + RAS push)
	OpRet   // goto ra (predicted via RAS)

	// Microarchitectural controls.
	OpClflush // evict the line containing rs1+imm from all caches (and shadow)
	OpRdCycle // rd = current cycle count (serializing read, like rdtscp)
	OpFence   // drain: do not dispatch younger instructions until commit
	OpHalt    // stop the program

	opMax // sentinel; keep last
)

// NumOps is the number of defined operations.
const NumOps = int(opMax)

var opNames = [...]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpShr: "shr", OpSra: "sra", OpSlt: "slt", OpAddi: "addi", OpAndi: "andi",
	OpOri: "ori", OpXori: "xori", OpShli: "shli", OpShri: "shri", OpSlti: "slti",
	OpMovi: "movi", OpFAdd: "fadd", OpFMul: "fmul", OpFDiv: "fdiv",
	OpLoad: "load", OpStore: "store", OpBeq: "beq", OpBne: "bne", OpBlt: "blt",
	OpBge: "bge", OpBltu: "bltu", OpBgeu: "bgeu", OpJmp: "jmp", OpJmpi: "jmpi",
	OpCall: "call", OpCalli: "calli", OpRet: "ret", OpClflush: "clflush",
	OpRdCycle: "rdcycle", OpFence: "fence", OpHalt: "halt",
}

// String returns the mnemonic of the operation.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class groups operations by the pipeline resources they use.
type Class uint8

const (
	ClassNop Class = iota
	ClassALU       // single-cycle integer
	ClassMul       // integer multiply
	ClassDiv       // integer divide / remainder
	ClassFP        // floating-point pipeline
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // direct jumps and calls
	ClassJumpInd
	ClassRet
	ClassFlush
	ClassCSR // rdcycle
	ClassFence
	ClassHalt
)

var opClasses = [...]Class{
	OpNop: ClassNop,
	OpAdd: ClassALU, OpSub: ClassALU, OpAnd: ClassALU, OpOr: ClassALU,
	OpXor: ClassALU, OpShl: ClassALU, OpShr: ClassALU, OpSra: ClassALU,
	OpSlt: ClassALU, OpAddi: ClassALU, OpAndi: ClassALU, OpOri: ClassALU,
	OpXori: ClassALU, OpShli: ClassALU, OpShri: ClassALU, OpSlti: ClassALU,
	OpMovi: ClassALU,
	OpMul:  ClassMul, OpDiv: ClassDiv, OpRem: ClassDiv,
	OpFAdd: ClassFP, OpFMul: ClassFP, OpFDiv: ClassFP,
	OpLoad: ClassLoad, OpStore: ClassStore,
	OpBeq: ClassBranch, OpBne: ClassBranch, OpBlt: ClassBranch,
	OpBge: ClassBranch, OpBltu: ClassBranch, OpBgeu: ClassBranch,
	OpJmp: ClassJump, OpCall: ClassJump,
	OpJmpi: ClassJumpInd, OpCalli: ClassJumpInd,
	OpRet:     ClassRet,
	OpClflush: ClassFlush, OpRdCycle: ClassCSR, OpFence: ClassFence,
	OpHalt: ClassHalt,
}

// ClassOf returns the resource class of the operation.
func ClassOf(o Op) Class {
	if int(o) < len(opClasses) {
		return opClasses[o]
	}
	return ClassNop
}

// Latency returns the execution latency in cycles of the operation,
// excluding memory-system time for loads (which is computed dynamically).
func Latency(o Op) int {
	switch ClassOf(o) {
	case ClassMul:
		return 3
	case ClassDiv:
		return 12
	case ClassFP:
		switch o {
		case OpFAdd:
			return 4
		case OpFMul:
			return 5
		default: // OpFDiv
			return 18
		}
	case ClassLoad, ClassStore:
		return 1 // address generation; memory time added separately
	default:
		return 1
	}
}

// IsBranchLike reports whether the operation redirects control flow and
// therefore participates in branch-mask speculation tracking.
func IsBranchLike(o Op) bool {
	switch ClassOf(o) {
	case ClassBranch, ClassJump, ClassJumpInd, ClassRet:
		return true
	}
	return false
}

// IsPredicted reports whether the operation's outcome is predicted (and can
// therefore mispredict). Direct jumps and calls have statically known targets
// and never mispredict; everything else branch-like can.
func IsPredicted(o Op) bool {
	switch ClassOf(o) {
	case ClassBranch, ClassJumpInd, ClassRet:
		return true
	}
	return false
}

// Instr is one machine instruction. Programs are slices of Instr; the
// program counter is an index into the slice. Each instruction occupies
// BytesPerInstr bytes of the instruction address space so that instruction
// fetch interacts with the I-cache at cache-line granularity.
type Instr struct {
	Op     Op
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int64
	Target int // direct branch/jump/call target (instruction index)
}

// BytesPerInstr is the size of one instruction in the instruction address
// space. Four bytes gives 16 instructions per 64-byte cache line, a typical
// x86 density.
const BytesPerInstr = 4

// String renders the instruction in assembler-like syntax.
func (in Instr) String() string {
	switch ClassOf(in.Op) {
	case ClassALU:
		switch in.Op {
		case OpMovi:
			return fmt.Sprintf("movi %s, %d", in.Rd, in.Imm)
		case OpAddi, OpAndi, OpOri, OpXori, OpShli, OpShri, OpSlti:
			return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
		default:
			return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
		}
	case ClassMul, ClassDiv, ClassFP:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	case ClassLoad:
		return fmt.Sprintf("load %s, %d(%s)", in.Rd, in.Imm, in.Rs1)
	case ClassStore:
		return fmt.Sprintf("store %s, %d(%s)", in.Rs2, in.Imm, in.Rs1)
	case ClassBranch:
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Rs1, in.Rs2, in.Target)
	case ClassJump:
		return fmt.Sprintf("%s @%d", in.Op, in.Target)
	case ClassJumpInd:
		return fmt.Sprintf("%s %d(%s)", in.Op, in.Imm, in.Rs1)
	case ClassRet:
		return "ret"
	case ClassFlush:
		return fmt.Sprintf("clflush %d(%s)", in.Imm, in.Rs1)
	case ClassCSR:
		return fmt.Sprintf("rdcycle %s", in.Rd)
	default:
		return in.Op.String()
	}
}

// HasDest reports whether the instruction writes a destination register.
func (in Instr) HasDest() bool {
	switch ClassOf(in.Op) {
	case ClassALU, ClassMul, ClassDiv, ClassFP, ClassLoad, ClassCSR:
		return in.Rd != Zero
	case ClassJump, ClassJumpInd:
		// Calls write the return address register.
		return (in.Op == OpCall || in.Op == OpCalli) && in.Rd != Zero
	}
	return false
}

// SrcRegs appends the source registers read by the instruction to dst and
// returns the extended slice. Register zero is never reported (it is
// always ready).
func (in Instr) SrcRegs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != Zero {
			dst = append(dst, r)
		}
	}
	switch ClassOf(in.Op) {
	case ClassALU:
		switch in.Op {
		case OpMovi:
		case OpAddi, OpAndi, OpOri, OpXori, OpShli, OpShri, OpSlti:
			add(in.Rs1)
		default:
			add(in.Rs1)
			add(in.Rs2)
		}
	case ClassMul, ClassDiv, ClassFP:
		add(in.Rs1)
		add(in.Rs2)
	case ClassLoad:
		add(in.Rs1)
	case ClassStore:
		add(in.Rs1)
		add(in.Rs2)
	case ClassBranch:
		add(in.Rs1)
		add(in.Rs2)
	case ClassJumpInd:
		add(in.Rs1)
	case ClassRet:
		add(RA)
	case ClassFlush:
		add(in.Rs1)
	}
	return dst
}

// Program is a sequence of instructions plus initial data pages.
type Program struct {
	// Code is the instruction stream. The entry point is index 0.
	Code []Instr
	// Entry is the instruction index where execution begins.
	Entry int
	// TrapHandler, if >= 0, is the instruction index the core vectors to
	// when a committed instruction raises a fault (e.g. a permission
	// violation). If < 0, a fault halts the program.
	TrapHandler int
	// Pages holds the initial data, installed before the program runs: one
	// page, sorted by VA, for each page the program set a word on. Pages
	// are never written after Build: the simulator's memory images alias
	// their Words instead of copying them, and copy a page only when a run
	// stores to it.
	Pages []DataPage
	// Regions lists further address ranges to map before execution.
	Regions []MemRegion
	// Symbols maps label names to instruction indices (for debugging and
	// for indirect-jump target computation in attack code).
	Symbols map[string]int
	// ThreadEntries optionally gives per-hardware-thread entry points for
	// SMT runs: thread t starts at ThreadEntries[t] when the slice covers
	// it, and at Entry otherwise (so a single-threaded program runs as
	// duplicate contexts on every extra thread).
	ThreadEntries []int
}

// PageWords is the number of 64-bit words on a 4 KiB data page.
const PageWords = 512

// DataPage is one 4 KiB page of a program's initial data.
type DataPage struct {
	VA     uint64  // page-aligned virtual base address
	Kernel bool    // mapped kernel-only: user loads fault at commit
	Words  []int64 // PageWords words: Words[i] is the word at VA+8*i
}

// Word returns the initial value of the word at va, and whether va lies on
// one of p's data pages.
func (p *Program) Word(va uint64) (int64, bool) {
	for _, d := range p.Pages {
		if d.VA == va&^(PageWords*8-1) {
			return d.Words[va%(PageWords*8)/8], true
		}
	}
	return 0, false
}

// CodeBase is the virtual address where the instruction stream is mapped.
// It sits far above the data addresses workloads conventionally use, so
// code and data never collide in the caches by accident.
const CodeBase uint64 = 1 << 30

// PCByte converts an instruction index to its virtual byte address.
func PCByte(pc int) uint64 { return CodeBase + uint64(pc)*BytesPerInstr }

// ByteToPC converts an instruction byte address back to an index.
func ByteToPC(addr uint64) int { return int((addr - CodeBase) / BytesPerInstr) }

// MemRegion declares a virtual address range the loader must map before the
// program runs. Workloads use regions for their arrays; attacks use kernel
// regions for the victim secret.
type MemRegion struct {
	// Base is the first byte of the region.
	Base uint64
	// Size is the region length in bytes.
	Size uint64
	// Kernel maps the region kernel-only (user access faults).
	Kernel bool
}
