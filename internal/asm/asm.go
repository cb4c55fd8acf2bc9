// Package asm provides a small label-based program builder for the SafeSpec
// ISA. Workloads, attack proofs-of-concept and examples use it instead of
// hand-resolving branch targets.
//
// Usage:
//
//	b := asm.NewBuilder()
//	b.Movi(isa.T0, 0)
//	b.Label("loop")
//	b.Addi(isa.T0, isa.T0, 1)
//	b.Blt(isa.T0, isa.T1, "loop")
//	b.Halt()
//	prog, err := b.Build()
//
// Labels may be referenced before they are defined; Build resolves all
// references and reports any label that was referenced but never defined.
package asm

import (
	"fmt"
	"maps"
	"sort"

	"safespec/internal/isa"
)

// Builder accumulates instructions and label definitions.
type Builder struct {
	code    []isa.Instr
	labels  map[string]int
	fixups  []fixup
	pages   map[uint64]*isa.DataPage // data pages by VA
	last    *isa.DataPage            // the page written last, usually the next one too
	dfixups []dataFixup
	regions []isa.MemRegion
	trap    string // label of trap handler, "" if none
	entry   string // label of entry point, "" means index 0
	// threadEntries holds per-hardware-thread entry labels ("" = program
	// entry) for SMT programs.
	threadEntries []string
	errs          []error
}

type fixup struct {
	instr int
	label string
}

type dataFixup struct {
	addr  uint64
	label string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		labels: make(map[string]int),
		pages:  make(map[uint64]*isa.DataPage),
	}
}

// Len returns the number of instructions emitted so far (the index the next
// instruction will occupy).
func (b *Builder) Len() int { return len(b.code) }

// Label defines name at the current position. Redefining a label is an error
// reported by Build.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("asm: label %q redefined", name))
		return
	}
	b.labels[name] = len(b.code)
}

// SetTrapHandler declares the label that the trap vector points at.
func (b *Builder) SetTrapHandler(label string) { b.trap = label }

// SetEntry declares the label execution starts from (default: index 0).
func (b *Builder) SetEntry(label string) { b.entry = label }

// SetThreadEntry assigns hardware thread tid its own entry label (SMT
// programs: victim on thread 0, attacker on thread 1). Threads without an
// assigned label start at the program entry point.
func (b *Builder) SetThreadEntry(tid int, label string) {
	if tid < 0 {
		b.errs = append(b.errs, fmt.Errorf("asm: negative thread id %d", tid))
		return
	}
	for len(b.threadEntries) <= tid {
		b.threadEntries = append(b.threadEntries, "")
	}
	b.threadEntries[tid] = label
}

// Data installs an initial 64-bit value at a user-accessible address.
func (b *Builder) Data(addr uint64, v int64) { b.set(addr, v, false) }

// KernelData installs an initial 64-bit value at a kernel-only address.
func (b *Builder) KernelData(addr uint64, v int64) { b.set(addr, v, true) }

// DataLabel installs the instruction index of label as a 64-bit value at a
// user-accessible address (for jump tables driving indirect calls).
func (b *Builder) DataLabel(addr uint64, label string) {
	b.set(addr, 0, false)
	b.dfixups = append(b.dfixups, dataFixup{addr: addr, label: label})
}

// set writes the data word at addr. Build reports a misaligned addr and a
// page holding both user and kernel words.
func (b *Builder) set(addr uint64, v int64, kernel bool) {
	va := addr &^ (isa.PageWords*8 - 1)
	if b.last == nil || b.last.VA != va {
		if b.last = b.pages[va]; b.last == nil {
			b.last = &isa.DataPage{VA: va, Kernel: kernel, Words: make([]int64, isa.PageWords)}
			b.pages[va] = b.last
		}
	}
	switch {
	case addr%8 != 0:
		b.errs = append(b.errs, fmt.Errorf("asm: data address %#x is not 8-byte aligned", addr))
	case b.last.Kernel != kernel:
		b.errs = append(b.errs, fmt.Errorf("asm: page %#x holds both user and kernel data", va))
	default:
		b.last.Words[(addr-va)/8] = v
	}
}

// Region declares a virtual address range the loader maps before running.
func (b *Builder) Region(base, size uint64, kernel bool) {
	b.regions = append(b.regions, isa.MemRegion{Base: base, Size: size, Kernel: kernel})
}

func (b *Builder) emit(in isa.Instr) {
	b.code = append(b.code, in)
}

func (b *Builder) emitTarget(in isa.Instr, label string) {
	in.Target = -1
	b.fixups = append(b.fixups, fixup{instr: len(b.code), label: label})
	b.code = append(b.code, in)
}

// --- ALU ---

// Movi emits rd = imm.
func (b *Builder) Movi(rd isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpMovi, Rd: rd, Imm: imm})
}

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpAdd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpSub, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpMul, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Div emits rd = rs1 / rs2 (0 on divide-by-zero).
func (b *Builder) Div(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpDiv, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Rem emits rd = rs1 % rs2 (rs1 on modulo-by-zero).
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpRem, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpAnd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpOr, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpXor, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Shl emits rd = rs1 << rs2.
func (b *Builder) Shl(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpShl, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Shr emits rd = rs1 >> rs2 (logical).
func (b *Builder) Shr(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpShr, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Slt emits rd = (rs1 < rs2) signed.
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpSlt, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpAddi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpAndi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Ori emits rd = rs1 | imm.
func (b *Builder) Ori(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpOri, Rd: rd, Rs1: rs1, Imm: imm})
}

// Xori emits rd = rs1 ^ imm.
func (b *Builder) Xori(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpXori, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shli emits rd = rs1 << imm.
func (b *Builder) Shli(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpShli, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shri emits rd = rs1 >> imm (logical).
func (b *Builder) Shri(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpShri, Rd: rd, Rs1: rs1, Imm: imm})
}

// Slti emits rd = (rs1 < imm) signed.
func (b *Builder) Slti(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpSlti, Rd: rd, Rs1: rs1, Imm: imm})
}

// FAdd emits a 4-cycle floating-point add.
func (b *Builder) FAdd(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpFAdd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// FMul emits a 5-cycle floating-point multiply.
func (b *Builder) FMul(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpFMul, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// FDiv emits an 18-cycle floating-point divide.
func (b *Builder) FDiv(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpFDiv, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// --- Memory ---

// Load emits rd = mem[rs1+imm].
func (b *Builder) Load(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpLoad, Rd: rd, Rs1: rs1, Imm: imm})
}

// Store emits mem[rs1+imm] = rs2.
func (b *Builder) Store(rs2, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpStore, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// Clflush emits a flush of the cache line containing rs1+imm.
func (b *Builder) Clflush(rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpClflush, Rs1: rs1, Imm: imm})
}

// --- Control flow ---

// Beq emits: if rs1 == rs2 goto label.
func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) {
	b.emitTarget(isa.Instr{Op: isa.OpBeq, Rs1: rs1, Rs2: rs2}, label)
}

// Bne emits: if rs1 != rs2 goto label.
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) {
	b.emitTarget(isa.Instr{Op: isa.OpBne, Rs1: rs1, Rs2: rs2}, label)
}

// Blt emits: if rs1 < rs2 (signed) goto label.
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) {
	b.emitTarget(isa.Instr{Op: isa.OpBlt, Rs1: rs1, Rs2: rs2}, label)
}

// Bge emits: if rs1 >= rs2 (signed) goto label.
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) {
	b.emitTarget(isa.Instr{Op: isa.OpBge, Rs1: rs1, Rs2: rs2}, label)
}

// Bltu emits: if rs1 < rs2 (unsigned) goto label.
func (b *Builder) Bltu(rs1, rs2 isa.Reg, label string) {
	b.emitTarget(isa.Instr{Op: isa.OpBltu, Rs1: rs1, Rs2: rs2}, label)
}

// Bgeu emits: if rs1 >= rs2 (unsigned) goto label.
func (b *Builder) Bgeu(rs1, rs2 isa.Reg, label string) {
	b.emitTarget(isa.Instr{Op: isa.OpBgeu, Rs1: rs1, Rs2: rs2}, label)
}

// Jmp emits an unconditional direct jump to label.
func (b *Builder) Jmp(label string) {
	b.emitTarget(isa.Instr{Op: isa.OpJmp}, label)
}

// Jmpi emits an indirect jump to the *instruction index* held in rs1+imm.
func (b *Builder) Jmpi(rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpJmpi, Rs1: rs1, Imm: imm})
}

// Call emits a direct call to label (writes the return index into ra).
func (b *Builder) Call(label string) {
	b.emitTarget(isa.Instr{Op: isa.OpCall, Rd: isa.RA}, label)
}

// Calli emits an indirect call to the instruction index in rs1+imm.
func (b *Builder) Calli(rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpCalli, Rd: isa.RA, Rs1: rs1, Imm: imm})
}

// Ret emits a return through ra.
func (b *Builder) Ret() { b.emit(isa.Instr{Op: isa.OpRet}) }

// --- Misc ---

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(isa.Instr{Op: isa.OpNop}) }

// Nops emits n no-ops (useful for padding gadgets onto distinct I-cache lines).
func (b *Builder) Nops(n int) {
	for i := 0; i < n; i++ {
		b.Nop()
	}
}

// RdCycle emits rd = cycle counter (serializing).
func (b *Builder) RdCycle(rd isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpRdCycle, Rd: rd})
}

// Fence emits a pipeline drain.
func (b *Builder) Fence() { b.emit(isa.Instr{Op: isa.OpFence}) }

// Halt emits program termination.
func (b *Builder) Halt() { b.emit(isa.Instr{Op: isa.OpHalt}) }

// MoviLabel emits rd = instruction index of label (resolved at Build time),
// for constructing indirect-branch targets.
func (b *Builder) MoviLabel(rd isa.Reg, label string) {
	b.emitTarget(isa.Instr{Op: isa.OpMovi, Rd: rd}, label)
}

// Build resolves labels and returns the finished program.
func (b *Builder) Build() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	// resolve looks a label up; the first undefined one is Build's error.
	var err error
	resolve := func(label, what string) int {
		idx, ok := b.labels[label]
		if !ok && err == nil {
			err = fmt.Errorf("asm: undefined %s %q", what, label)
		}
		return idx
	}
	code := make([]isa.Instr, len(b.code))
	copy(code, b.code)
	for _, f := range b.fixups {
		if idx := resolve(f.label, "label"); code[f.instr].Op == isa.OpMovi {
			code[f.instr].Imm = int64(idx)
		} else {
			code[f.instr].Target = idx
		}
	}
	// Copy the pages, sorted by VA, so a later Data call cannot change the
	// program, and resolve the DataLabel words in the copy.
	pages := make([]isa.DataPage, 0, len(b.pages))
	words := make([]int64, len(b.pages)*isa.PageWords)
	for _, p := range b.pages {
		w := words[len(pages)*isa.PageWords:][:isa.PageWords:isa.PageWords]
		copy(w, p.Words)
		pages = append(pages, isa.DataPage{VA: p.VA, Kernel: p.Kernel, Words: w})
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].VA < pages[j].VA })
	for _, f := range b.dfixups {
		i := sort.Search(len(pages), func(i int) bool { return pages[i].VA > f.addr }) - 1
		pages[i].Words[f.addr%(isa.PageWords*8)/8] = int64(resolve(f.label, "data label"))
	}
	prog := &isa.Program{
		Code:        code,
		TrapHandler: -1,
		Pages:       pages,
		Regions:     append([]isa.MemRegion(nil), b.regions...),
		Symbols:     maps.Clone(b.labels),
	}
	if b.trap != "" {
		prog.TrapHandler = resolve(b.trap, "trap handler label")
	}
	if b.entry != "" {
		prog.Entry = resolve(b.entry, "entry label")
	}
	if len(b.threadEntries) > 0 {
		prog.ThreadEntries = make([]int, len(b.threadEntries))
		for tid, label := range b.threadEntries {
			prog.ThreadEntries[tid] = prog.Entry
			if label != "" {
				prog.ThreadEntries[tid] = resolve(label, fmt.Sprintf("thread %d entry label", tid))
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// MustBuild is Build that panics on error; intended for static programs in
// workloads and tests where a label error is a programming bug.
func (b *Builder) MustBuild() *isa.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Disassemble renders the program with labels, one instruction per line.
func Disassemble(p *isa.Program) string {
	byIdx := make(map[int][]string)
	for name, idx := range p.Symbols {
		byIdx[idx] = append(byIdx[idx], name)
	}
	var out []byte
	for i, in := range p.Code {
		names := byIdx[i]
		sort.Strings(names)
		for _, n := range names {
			out = append(out, (n + ":\n")...)
		}
		out = append(out, fmt.Sprintf("%5d:  %s\n", i, in)...)
	}
	return string(out)
}
