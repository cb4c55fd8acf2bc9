package asm_test

import (
	"fmt"

	"safespec/internal/asm"
	"safespec/internal/isa"
)

// ExampleBuilder assembles a counted loop with forward and backward label
// references and prints its disassembly.
func ExampleBuilder() {
	b := asm.NewBuilder()
	b.Movi(isa.T0, 3)
	b.Label("loop")
	b.Addi(isa.T0, isa.T0, -1)
	b.Bne(isa.T0, isa.Zero, "loop")
	b.Halt()
	prog := b.MustBuild()
	fmt.Print(asm.Disassemble(prog))
	// Output:
	//     0:  movi t0, 3
	// loop:
	//     1:  addi t0, t0, -1
	//     2:  bne t0, zero, @1
	//     3:  halt
}

// ExampleBuilder_DataLabel builds a jump table in memory — the pattern the
// I-cache Spectre variant and the workload dispatchers use.
func ExampleBuilder_DataLabel() {
	b := asm.NewBuilder()
	b.Region(0x1000, 4096, false)
	b.DataLabel(0x1000, "handler")
	b.Movi(isa.T0, 0x1000)
	b.Load(isa.T1, isa.T0, 0)
	b.Jmpi(isa.T1, 0)
	b.Label("handler")
	b.Halt()
	prog := b.MustBuild()
	v, _ := prog.Word(0x1000)
	fmt.Println(v) // the instruction index of "handler"
	// Output: 3
}
