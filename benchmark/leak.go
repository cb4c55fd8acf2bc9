package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"safespec/internal/attacks"
	"safespec/internal/core"
	"safespec/internal/sweep"
)

// leakWant is the verdict table of the paper's Tables III and IV as
// TestLeakMatrix pins it — leaked under baseline, WFB, WFC: every attack
// leaks on the baseline, WFB stops all but Meltdown, WFC stops all.
var leakWant = map[string][3]bool{
	"meltdown":       {true, true, false},
	"spectre-v1":     {true, false, false},
	"spectre-v2":     {true, false, false},
	"spectre-icache": {true, false, false},
	"spectre-itlb":   {true, false, false},
	"spectre-dtlb":   {true, false, false},
	"smt-btb-v2":     {true, false, false},
}

// leakSecrets are the planted values the workload seed picks from. The
// baseline recovers every other value in 1..15 for every attack; it misses
// 1 and 9 with spectre-icache and 6 with spectre-itlb (the probe gap stays
// under the attack's MinGap), so those would be wrong verdicts by design,
// not by regression.
var leakSecrets = []int64{2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 14, 15}

// leakRepeats is how many times one pass runs the 24-cell matrix (~30 ms
// each on two workers), so a pass lasts about 300 ms.
const leakRepeats = 10

// leakCell is one entry of the leak matrix: an attack (or the TSA, when
// attack is nil) under one configuration, with its expected verdict.
type leakCell struct {
	name, mode string
	attack     *attacks.Attack
	secret     int64
	cfg        core.Config
	want       bool
}

type leakOutcome struct {
	leaked    bool
	recovered int64
	cycles    uint64
	err       error
}

func (c leakCell) run() leakOutcome {
	if c.attack == nil {
		out, err := attacks.TSA{Secret: c.secret}.Run(c.cfg)
		return leakOutcome{leaked: out.Leaked, recovered: out.Recovered, err: err}
	}
	out, err := attacks.Execute(*c.attack, c.cfg)
	return leakOutcome{leaked: out.Leaked, recovered: out.Recovered, cycles: out.Cycles, err: err}
}

// leakMatrix is the security evaluation: attacks.All() × {baseline, wfb,
// wfc} plus the TSA under tiny-WFC, secure-WFC and secure-WFB, run on the
// sweep worker pool the way safespec-attack runs it. The workload seed picks
// the planted secret. Every verdict must match leakWant, and every pass
// must recover the same values in the same simulated cycles as the
// warm-up pass.
type leakMatrix struct {
	seed int64
	tr   *tracer

	cells []leakCell
	ref   []leakOutcome

	cellMS     []float64
	allocBytes uint64
	traced     int
	mismatches int
}

func (l *leakMatrix) setup(context.Context) error {
	secret := leakSecrets[(l.seed%int64(len(leakSecrets))+int64(len(leakSecrets)))%int64(len(leakSecrets))]
	modes := []struct {
		name string
		cfg  core.Config
	}{{"baseline", core.Baseline()}, {"wfb", core.WFB()}, {"wfc", core.WFC()}}
	for _, a := range attacks.All() {
		want, ok := leakWant[a.Name]
		if !ok {
			return fmt.Errorf("leak-matrix: no expected verdict for attack %s", a.Name)
		}
		a.Secret = secret
		for i, m := range modes {
			l.cells = append(l.cells, leakCell{name: a.Name, mode: m.name, attack: &a, secret: secret, cfg: m.cfg, want: want[i]})
		}
	}
	l.cells = append(l.cells,
		leakCell{name: "tsa", mode: "tiny-wfc", secret: secret, cfg: core.WFC().WithShadowPolicy(attacks.TinyShadowPolicy()), want: true},
		leakCell{name: "tsa", mode: "secure-wfc", secret: secret, cfg: core.WFC()},
		leakCell{name: "tsa", mode: "secure-wfb", secret: secret, cfg: core.WFB()},
	)
	return nil
}

func (l *leakMatrix) pass(ctx context.Context, traced bool) (passStats, error) {
	n := len(l.cells) * leakRepeats
	outs := make([]leakOutcome, n)
	durs := make([]time.Duration, n)
	before := readRuntime()
	start := time.Now()
	err := sweep.ForEach(ctx, n, workers, func(_ context.Context, i int) error {
		t := time.Now()
		outs[i] = l.cells[i%len(l.cells)].run()
		durs[i] = time.Since(t)
		return nil
	})
	wall := time.Since(start)
	after := readRuntime()
	if err != nil {
		return passStats{}, err
	}
	if l.ref == nil {
		l.ref = outs[:len(l.cells)]
	}
	ps := passStats{cells: n, wall: wall}
	var cellWall time.Duration
	for i, o := range outs {
		c, ref := l.cells[i%len(l.cells)], l.ref[i%len(l.cells)]
		if o.err != nil || o.leaked != c.want {
			ps.failed++
			if o.err == nil && traced {
				l.mismatches++
			}
		}
		if o.recovered != ref.recovered || o.cycles != ref.cycles {
			l.tr.fail("leak-matrix: %s/%s recovered %d in %d cycles, warm-up %d in %d",
				c.name, c.mode, o.recovered, o.cycles, ref.recovered, ref.cycles)
		}
		if traced {
			l.cellMS = append(l.cellMS, float64(durs[i])/1e6)
			cellWall += durs[i]
		}
	}
	if traced {
		l.tr.passBusy(cellWall, wall)
		l.tr.passRuntime(before, after)
		l.allocBytes += after.allocBytes - before.allocBytes
		l.traced += n
	}
	return ps, nil
}

// probe runs each attack cell once, serially, through the public calls
// attacks.Execute makes (Build, core.New, Setup, Run), timing each phase
// and counting the allocations inside Run alone.
func (l *leakMatrix) probe(m *layers) error {
	var buildMS, newMS, runMS []float64
	var spans []simSpan
	var allocs uint64
	ipc := make(map[string]map[string]float64)
	for _, c := range l.cells {
		if c.attack == nil {
			continue
		}
		a, cfg := *c.attack, c.cfg
		if a.Threads > 1 {
			cfg.Pipeline.Threads = a.Threads
		}
		t0 := time.Now()
		prog, err := a.Build(a.Secret)
		if err != nil {
			return err
		}
		t1 := time.Now()
		sim := core.New(cfg, prog)
		t2 := time.Now()
		if a.Setup != nil {
			a.Setup(sim.CPU(), prog)
		}
		before := readRuntime()
		t3 := time.Now()
		res := sim.Run()
		t4 := time.Now()
		allocs += readRuntime().allocObjs - before.allocObjs
		buildMS = append(buildMS, float64(t1.Sub(t0))/1e6)
		newMS = append(newMS, float64(t2.Sub(t1))/1e6)
		runMS = append(runMS, float64(t4.Sub(t3))/1e6)
		spans = append(spans, simSpan{setupNS: int64(t2.Sub(t1)), runNS: int64(t4.Sub(t3)),
			cycles: res.Cycles, committed: res.Committed})
		if ipc[c.name] == nil {
			ipc[c.name] = make(map[string]float64)
		}
		ipc[c.name][c.mode] = res.IPC()
	}
	simLayers(m, spans, allocs)
	m.set("attacks.build_ms_p50", quantile(buildMS, 0.5))
	m.set("attacks.new_ms_p50", quantile(newMS, 0.5))
	m.set("attacks.run_ms_p50", quantile(runMS, 0.5))
	var lw, lb float64
	for _, v := range ipc {
		lw += math.Log(v["wfc"] / v["baseline"])
		lb += math.Log(v["wfb"] / v["baseline"])
	}
	m.set("model.wfc_norm_ipc", math.Exp(lw/float64(len(ipc))))
	m.set("model.wfb_norm_ipc", math.Exp(lb/float64(len(ipc))))
	return nil
}

func (l *leakMatrix) addLayers(m *layers) {
	if !l.tr.on {
		return
	}
	if err := l.probe(m); err != nil {
		l.tr.fail("leak-matrix probe: %v", err)
	}
	m.set("attacks.cell_ms_p50", quantile(l.cellMS, 0.5))
	m.set("attacks.cell_ms_p90", quantile(l.cellMS, 0.9))
	if l.traced > 0 {
		m.set("attacks.alloc_kb_per_cell", float64(l.allocBytes)/1024/float64(l.traced))
	}
	m.set("attacks.verdict_mismatches", float64(l.mismatches))
}

func (l *leakMatrix) close() error { return nil }
