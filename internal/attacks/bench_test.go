package attacks

import (
	"testing"

	"safespec/internal/core"
)

// BenchmarkAttackCell times one leak-matrix cell end to end: program memo
// lookup, a pooled simulator's Acquire (Reset), the run and the verdict.
// Attack cells are short, so this is where the cost of Reset shows:
//
//	go test -bench=AttackCell -benchmem ./internal/attacks/
func BenchmarkAttackCell(b *testing.B) {
	b.Run("spectre-v1/wfc", func(b *testing.B) {
		a := SpectreV1()
		benchCell(b, func() error { _, err := Execute(a, core.WFC()); return err })
	})
	b.Run("smt-btb-v2/baseline", func(b *testing.B) {
		a := SMTBTBV2()
		benchCell(b, func() error { _, err := Execute(a, core.Baseline()); return err })
	})
	b.Run("tsa/tiny-wfc", func(b *testing.B) {
		cfg := core.WFC().WithShadowPolicy(TinyShadowPolicy())
		benchCell(b, func() error { _, err := TSA{}.Run(cfg); return err })
	})
}

// benchCell runs cell once to warm the program memo and the simulator
// pool, then times it.
func benchCell(b *testing.B, cell func() error) {
	if err := cell(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := cell(); err != nil {
			b.Fatal(err)
		}
	}
}
