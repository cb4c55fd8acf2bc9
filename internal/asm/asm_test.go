package asm

import (
	"reflect"
	"strings"
	"testing"

	"safespec/internal/isa"
)

func TestForwardAndBackwardLabels(t *testing.T) {
	b := NewBuilder()
	b.Label("start")
	b.Jmp("end") // forward reference
	b.Jmp("start")
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Target != 2 {
		t.Errorf("forward jump target = %d, want 2", p.Code[0].Target)
	}
	if p.Code[1].Target != 0 {
		t.Errorf("backward jump target = %d, want 0", p.Code[1].Target)
	}
}

func TestUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("expected undefined-label error, got %v", err)
	}
}

func TestRedefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "redefined") {
		t.Errorf("expected redefined-label error, got %v", err)
	}
}

func TestUndefinedTrapHandler(t *testing.T) {
	b := NewBuilder()
	b.Halt()
	b.SetTrapHandler("missing")
	if _, err := b.Build(); err == nil {
		t.Error("expected error for undefined trap handler")
	}
}

func TestTrapHandlerAndEntry(t *testing.T) {
	b := NewBuilder()
	b.Nop()
	b.Label("main")
	b.Nop()
	b.Label("trap")
	b.Halt()
	b.SetTrapHandler("trap")
	b.SetEntry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.TrapHandler != 2 {
		t.Errorf("trap handler = %d, want 2", p.TrapHandler)
	}
	if p.Entry != 1 {
		t.Errorf("entry = %d, want 1", p.Entry)
	}
}

func TestNoTrapHandlerDefaults(t *testing.T) {
	b := NewBuilder()
	b.Halt()
	p := b.MustBuild()
	if p.TrapHandler != -1 {
		t.Errorf("default trap handler = %d, want -1", p.TrapHandler)
	}
	if p.Entry != 0 {
		t.Errorf("default entry = %d, want 0", p.Entry)
	}
}

func TestMoviLabel(t *testing.T) {
	b := NewBuilder()
	b.MoviLabel(isa.T0, "target")
	b.Nop()
	b.Label("target")
	b.Halt()
	p := b.MustBuild()
	if p.Code[0].Imm != 2 {
		t.Errorf("MoviLabel imm = %d, want 2", p.Code[0].Imm)
	}
}

func TestDataLabel(t *testing.T) {
	b := NewBuilder()
	b.Nop()
	b.Label("fn")
	b.Halt()
	b.DataLabel(0x1000, "fn")
	p := b.MustBuild()
	if v, _ := p.Word(0x1000); v != 1 {
		t.Errorf("DataLabel value = %d, want 1", v)
	}
}

func TestDataLabelUndefined(t *testing.T) {
	b := NewBuilder()
	b.Halt()
	b.DataLabel(0x1000, "ghost")
	if _, err := b.Build(); err == nil {
		t.Error("expected error for undefined data label")
	}
}

func TestDataAndRegions(t *testing.T) {
	b := NewBuilder()
	b.KernelData(0x5200, 9)
	b.Data(0x100, 7)
	b.Data(0x3008, 0) // an explicit 0 still puts its page in the image
	b.Region(0x3000, 8192, true)
	b.Halt()
	p := b.MustBuild()
	if v, ok := p.Word(0x100); v != 7 || !ok {
		t.Errorf("Data = %d, %v", v, ok)
	}
	if v, ok := p.Word(0x5200); v != 9 || !ok {
		t.Errorf("KernelData = %d, %v", v, ok)
	}
	if _, ok := p.Word(0x4000); ok {
		t.Error("a page without data words is in the image")
	}
	var got []isa.DataPage
	for _, pg := range p.Pages {
		got = append(got, isa.DataPage{VA: pg.VA, Kernel: pg.Kernel})
		if len(pg.Words) != isa.PageWords {
			t.Errorf("page %#x has %d words", pg.VA, len(pg.Words))
		}
	}
	want := []isa.DataPage{{VA: 0}, {VA: 0x3000}, {VA: 0x5000, Kernel: true}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pages = %+v, want %+v (sorted by VA)", got, want)
	}
	if len(p.Regions) != 1 || !p.Regions[0].Kernel || p.Regions[0].Size != 8192 {
		t.Errorf("Regions = %+v", p.Regions)
	}
}

func TestBuildIsolation(t *testing.T) {
	// Build must snapshot: later edits to the builder may not affect a
	// previously built program.
	b := NewBuilder()
	b.Data(0x10, 1)
	b.Halt()
	p1 := b.MustBuild()
	b.Data(0x10, 2)
	if v, _ := p1.Word(0x10); v != 1 {
		t.Error("Build did not copy the data pages")
	}
	if p2 := b.MustBuild(); &p2.Pages[0].Words[0] == &p1.Pages[0].Words[0] {
		t.Error("two builds share data pages")
	}
}

// TestBuildRejectsMalformedData: a misaligned data address (which the
// loader would fold into its neighbour word) and a page holding both user
// and kernel words are Build errors, not silent choices.
func TestBuildRejectsMalformedData(t *testing.T) {
	cases := map[string]func(b *Builder){
		"misaligned Data":       func(b *Builder) { b.Data(0x1004, 1) },
		"misaligned KernelData": func(b *Builder) { b.KernelData(0x1001, 1) },
		"misaligned DataLabel":  func(b *Builder) { b.DataLabel(0x100c, "end") },
		"kernel after user":     func(b *Builder) { b.Data(0x1000, 1); b.KernelData(0x1ff8, 2) },
		"user after kernel":     func(b *Builder) { b.KernelData(0x1000, 1); b.Data(0x1008, 2) },
		"label on kernel page":  func(b *Builder) { b.KernelData(0x1000, 1); b.DataLabel(0x1008, "end") },
	}
	for name, write := range cases {
		b := NewBuilder()
		write(b)
		b.Label("end")
		b.Halt()
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build accepted it", name)
		}
	}
}

func TestEmittersProduceExpectedOps(t *testing.T) {
	b := NewBuilder()
	b.Movi(isa.T0, 1)
	b.Add(isa.T1, isa.T0, isa.T0)
	b.Sub(isa.T1, isa.T1, isa.T0)
	b.Mul(isa.T2, isa.T1, isa.T0)
	b.Div(isa.T2, isa.T2, isa.T0)
	b.Rem(isa.T2, isa.T2, isa.T0)
	b.And(isa.T3, isa.T2, isa.T0)
	b.Or(isa.T3, isa.T3, isa.T0)
	b.Xor(isa.T3, isa.T3, isa.T0)
	b.Shl(isa.T4, isa.T3, isa.T0)
	b.Shr(isa.T4, isa.T4, isa.T0)
	b.Slt(isa.T5, isa.T4, isa.T0)
	b.Addi(isa.T0, isa.T0, 1)
	b.Andi(isa.T0, isa.T0, 3)
	b.Ori(isa.T0, isa.T0, 4)
	b.Xori(isa.T0, isa.T0, 5)
	b.Shli(isa.T0, isa.T0, 1)
	b.Shri(isa.T0, isa.T0, 1)
	b.Slti(isa.T0, isa.T0, 10)
	b.FAdd(isa.S0, isa.T0, isa.T1)
	b.FMul(isa.S0, isa.S0, isa.T1)
	b.FDiv(isa.S0, isa.S0, isa.T1)
	b.Load(isa.S1, isa.T0, 8)
	b.Store(isa.S1, isa.T0, 16)
	b.Clflush(isa.T0, 0)
	b.RdCycle(isa.S2)
	b.Fence()
	b.Nop()
	b.Nops(2)
	b.Jmpi(isa.T0, 0)
	b.Calli(isa.T0, 0)
	b.Ret()
	b.Halt()
	p := b.MustBuild()

	wantOps := []isa.Op{
		isa.OpMovi, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt,
		isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpShli, isa.OpShri,
		isa.OpSlti, isa.OpFAdd, isa.OpFMul, isa.OpFDiv, isa.OpLoad, isa.OpStore,
		isa.OpClflush, isa.OpRdCycle, isa.OpFence, isa.OpNop, isa.OpNop, isa.OpNop,
		isa.OpJmpi, isa.OpCalli, isa.OpRet, isa.OpHalt,
	}
	if len(p.Code) != len(wantOps) {
		t.Fatalf("emitted %d instructions, want %d", len(p.Code), len(wantOps))
	}
	for i, op := range wantOps {
		if p.Code[i].Op != op {
			t.Errorf("instr %d: op = %v, want %v", i, p.Code[i].Op, op)
		}
	}
}

func TestBranchEmitters(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	b.Beq(isa.T0, isa.T1, "top")
	b.Bne(isa.T0, isa.T1, "top")
	b.Blt(isa.T0, isa.T1, "top")
	b.Bge(isa.T0, isa.T1, "top")
	b.Bltu(isa.T0, isa.T1, "top")
	b.Bgeu(isa.T0, isa.T1, "top")
	b.Call("top")
	b.Halt()
	p := b.MustBuild()
	for i := 0; i < 7; i++ {
		if p.Code[i].Target != 0 {
			t.Errorf("instr %d target = %d, want 0", i, p.Code[i].Target)
		}
	}
	if p.Code[6].Rd != isa.RA {
		t.Error("call must write ra")
	}
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder()
	b.Label("main")
	b.Movi(isa.T0, 5)
	b.Label("loop")
	b.Addi(isa.T0, isa.T0, -1)
	b.Bne(isa.T0, isa.Zero, "loop")
	b.Halt()
	p := b.MustBuild()
	dis := Disassemble(p)
	for _, want := range []string{"main:", "loop:", "movi t0, 5", "halt"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestLen(t *testing.T) {
	b := NewBuilder()
	if b.Len() != 0 {
		t.Error("empty builder length != 0")
	}
	b.Nop()
	b.Nop()
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
}
