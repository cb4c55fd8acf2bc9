package attacks

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/sweep"
)

// reuseModes are the configurations of the leak matrix (Tables III/IV).
var reuseModes = []struct {
	name string
	cfg  core.Config
}{
	{"baseline", core.Baseline()},
	{"wfb", core.WFB()},
	{"wfc", core.WFC()},
}

// tsaModes are the TSA rows: undersized Replace shadows and Secure sizing.
var tsaModes = []struct {
	name string
	cfg  core.Config
}{
	{"tiny-wfc", core.WFC().WithShadowPolicy(TinyShadowPolicy())},
	{"secure-wfc", core.WFC()},
	{"secure-wfb", core.WFB()},
}

// executeFresh is Execute on a private simulator from core.New: the
// reference the pooled path must reproduce.
func executeFresh(t *testing.T, a Attack, cfg core.Config) Outcome {
	t.Helper()
	prog, err := a.Build(a.Secret)
	if err != nil {
		t.Fatal(err)
	}
	if a.Threads > 1 {
		cfg.Pipeline.Threads = a.Threads
	}
	sim := core.New(cfg, prog)
	if a.Setup != nil {
		a.Setup(sim.CPU(), prog)
	}
	cycles := sim.Run().Cycles
	times, err := readResults(sim, Slots)
	if err != nil {
		t.Fatal(err)
	}
	rec := decide(times, a.MinGap, a.FastIsSignal)
	return Outcome{Times: times, Recovered: rec, Secret: a.Secret, Leaked: rec == a.Secret, Cycles: cycles}
}

// tsaFresh is TSA.Run on a private simulator per bit.
func tsaFresh(t *testing.T, secret int64, cfg core.Config) TSAOutcome {
	t.Helper()
	out := TSAOutcome{Secret: secret}
	for bit := 0; bit < 4; bit++ {
		prog, err := tsaPrograms.get(tsaKey{secret, bit}, buildTSABit)
		if err != nil {
			t.Fatal(err)
		}
		sim := core.New(cfg, prog)
		sim.Run()
		times, err := readResults(sim, 1)
		if err != nil {
			t.Fatal(err)
		}
		out.BitTimes[bit] = times[0]
		if times[0] > tsaThreshold {
			out.Recovered |= 1 << uint(bit)
		}
	}
	out.Leaked = out.Recovered == secret
	return out
}

// TestPooledMatchesFresh is the reuse gate for the attack path: every
// attack × {baseline, wfb, wfc} and the TSA × {tiny-WFC, secure-WFC,
// secure-WFB}, for several planted secrets, run through the shared
// simulator pool and memoized programs must reproduce a fresh simulator's
// probe timings, recovered value and cycle count exactly. The cells run
// serially twice, in two interleavings, so the recycled simulator crosses
// Threads 1↔2 (smt-btb-v2), tiny↔secure shadow sizing (the TSA rows) and
// all three protection modes, both on a repeated program (a reload of the
// same image) and across program switches.
func TestPooledMatchesFresh(t *testing.T) {
	type cell struct {
		name   string
		attack *Attack // nil for the TSA
		secret int64
		cfg    core.Config
	}
	var cells []cell
	for _, secret := range []int64{2, DefaultSecret, 15} {
		for _, a := range All() {
			a.Secret = secret
			for _, m := range reuseModes {
				cells = append(cells, cell{a.Name + "/" + m.name, &a, secret, m.cfg})
			}
		}
		for _, m := range tsaModes {
			cells = append(cells, cell{"tsa/" + m.name, nil, secret, m.cfg})
		}
	}
	// Fresh references first, so the pooled runs below follow one another.
	wantAttack := make([]Outcome, len(cells))
	wantTSA := make([]TSAOutcome, len(cells))
	for i, c := range cells {
		if c.attack != nil {
			wantAttack[i] = executeFresh(t, *c.attack, c.cfg)
		} else {
			wantTSA[i] = tsaFresh(t, c.secret, c.cfg)
		}
	}

	const stride = 5 // coprime to len(cells) = 3 secrets × 24, so a permutation
	order := identity(len(cells))
	for k := range order {
		order[k] = k * stride % len(cells)
	}
	pooled := func(i int) error {
		c := cells[i]
		if c.attack == nil {
			got, err := TSA{Secret: c.secret}.Run(c.cfg)
			if err != nil {
				return fmt.Errorf("%s secret %d: %w", c.name, c.secret, err)
			}
			if got != wantTSA[i] {
				return fmt.Errorf("%s secret %d: pooled %+v, fresh %+v", c.name, c.secret, got, wantTSA[i])
			}
			return nil
		}
		got, err := Execute(*c.attack, c.cfg)
		if err != nil {
			return fmt.Errorf("%s secret %d: %w", c.name, c.secret, err)
		}
		if want := wantAttack[i]; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s secret %d: pooled recovered %d in %d cycles, times %v; fresh %d in %d cycles, times %v",
				c.name, c.secret, got.Recovered, got.Cycles, got.Times, want.Recovered, want.Cycles, want.Times)
		}
		return nil
	}
	// Table order first: each attack's program runs under baseline, wfb,
	// wfc back to back, so the recycled simulator reloads the same image
	// across mode changes. Then the strided order, which switches program,
	// mode and secret on every cell.
	for _, i := range append(identity(len(cells)), order...) {
		if err := pooled(i); err != nil {
			t.Error(err)
		}
	}
	// Once more on concurrent workers, as safespec-attack runs the matrix:
	// the memo and the pool are shared across goroutines (CI runs this
	// package under -race).
	err := sweep.ForEach(context.Background(), len(order), 4, func(_ context.Context, k int) error {
		return pooled(order[k])
	})
	if err != nil {
		t.Error(err)
	}
}

// identity returns 0, 1, ..., n-1.
func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// cloneProgram deep-copies every field of p.
func cloneProgram(p *isa.Program) *isa.Program {
	c := *p
	c.Code = slices.Clone(p.Code)
	c.Data = maps.Clone(p.Data)
	c.KernelData = maps.Clone(p.KernelData)
	c.Regions = slices.Clone(p.Regions)
	c.Symbols = maps.Clone(p.Symbols)
	c.ThreadEntries = slices.Clone(p.ThreadEntries)
	return &c
}

// TestMemoizedProgramsImmutable guards the memo's contract: Build returns
// one shared program per secret, and running it — Setup included — under
// every mode leaves it exactly as built.
func TestMemoizedProgramsImmutable(t *testing.T) {
	check := func(name string, prog *isa.Program, run func(cfg core.Config)) {
		t.Helper()
		before := cloneProgram(prog)
		for _, m := range append(slices.Clone(reuseModes), tsaModes[0]) {
			run(m.cfg)
		}
		if !reflect.DeepEqual(prog, before) {
			t.Errorf("%s: running the program modified it", name)
		}
	}
	for _, a := range All() {
		p1, err := a.Build(a.Secret)
		if err != nil {
			t.Fatal(err)
		}
		if p2, _ := a.Build(a.Secret); p2 != p1 {
			t.Errorf("%s: Build returned a new program on a repeated call", a.Name)
		}
		check(a.Name, p1, func(cfg core.Config) { executeFresh(t, a, cfg) })
	}
	for bit := 0; bit < 4; bit++ {
		k := tsaKey{DefaultSecret, bit}
		p1, err := tsaPrograms.get(k, buildTSABit)
		if err != nil {
			t.Fatal(err)
		}
		if p2, _ := tsaPrograms.get(k, buildTSABit); p2 != p1 {
			t.Errorf("tsa bit %d: repeated build returned a new program", bit)
		}
		check(fmt.Sprintf("tsa bit %d", bit), p1, func(cfg core.Config) { core.New(cfg, p1).Run() })
	}
}
