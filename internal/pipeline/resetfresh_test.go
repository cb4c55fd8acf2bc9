package pipeline_test

import (
	"strings"
	"testing"

	"safespec/internal/attacks"
	"safespec/internal/core"
	"safespec/internal/isa"
	"safespec/internal/pipeline"
	"safespec/internal/workloads"
)

// TestResetMatchesFresh: Reset clears only what the last run touched (the
// cache sets and TLB sets it filled, the shadow entries it allocated, the
// ROB and scheduler slots it dispatched into), so this pins that
// bookkeeping as complete. One simulator runs a sequence of dirtying cells,
// each twice; after every run it is Reset to the next cell and must then
// equal, structure by structure, a simulator freshly built for that cell:
// every cache level and TLB without a valid line and with its LRU clock at
// 0, each thread's four shadow structures empty with New's free-list order
// and probe table, and the predictor tables, ROB, fetch ring and scheduler
// arrays as New leaves them. pipeline.DiffFresh names the few fields a
// Reset may legitimately leave different.
func TestResetMatchesFresh(t *testing.T) {
	build := func(name string) *isa.Program {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w.Build()
	}
	smt := attacks.SMTBTBV2()
	smtProg, err := smt.Build(smt.Secret)
	if err != nil {
		t.Fatal(err)
	}
	tsaProg, err := attacks.TSA{}.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	occ := core.WFC().WithLimits(10_000, 0)
	occ.SampleOccupancy = true
	smtCfg := core.WFB()
	smtCfg.Pipeline.Threads = smt.Threads

	cells := []struct {
		name string
		cfg  core.Config
		prog *isa.Program
	}{
		{"perlbench/wfc+occupancy", occ, build("perlbench")},
		{"smt-btb-v2/wfb", smtCfg, smtProg},
		{"tsa/tiny-wfc", core.WFC().WithShadowPolicy(attacks.TinyShadowPolicy()), tsaProg},
		// Short enough to dispatch into only part of the ROB.
		{"exchange2/baseline", core.Baseline().WithLimits(100, 0), build("exchange2")},
	}
	sim := core.New(cells[0].cfg, cells[0].prog)
	for i := range 2 * len(cells) {
		cur, next := cells[i/2], cells[(i+1)/2%len(cells)]
		if st := sim.Run(); st.Committed == 0 {
			t.Fatalf("%s committed nothing", cur.name)
		}
		sim.Reset(next.cfg, next.prog)
		fresh := core.New(next.cfg, next.prog)
		if diff := pipeline.DiffFresh(sim.CPU(), fresh.CPU()); len(diff) > 0 {
			t.Errorf("after %s, Reset to %s differs from a fresh simulator:\n%s",
				cur.name, next.name, strings.Join(diff, "\n"))
		}
	}
}
