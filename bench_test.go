// Package safespec_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`) on a reduced matrix. One Benchmark per
// table/figure; the figure's headline numbers are emitted as custom metrics.
// The full-scale figures come from the safespec-bench commands in the
// README ("safespec-bench"); simulator speed is measured with
// `bash benchmark/run.sh` (README, "Measuring speed").
package safespec_test

import (
	"context"
	"testing"

	"safespec/internal/attacks"
	"safespec/internal/core"
	"safespec/internal/figures"
	"safespec/internal/hwmodel"
	"safespec/internal/sweep"
	"safespec/internal/workloads"
)

// benchSweep runs the reduced per-figure sweep (the sweep.Quick matrix at a
// slightly larger budget) through the internal/sweep engine.
func benchSweep(b *testing.B) []figures.BenchResult {
	b.Helper()
	spec := sweep.Quick()
	spec.Instructions = 20_000
	jobs, err := spec.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	results, err := sweep.Run(context.Background(), jobs, sweep.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rows, err := figures.Group(results)
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkSweepEngine measures the engine itself on the CI smoke matrix:
// the quick preset (6 benchmarks x 3 modes) on the default worker pool,
// reporting aggregate simulation throughput.
func BenchmarkSweepEngine(b *testing.B) {
	jobs, err := sweep.Quick().Jobs()
	if err != nil {
		b.Fatal(err)
	}
	var agg sweep.Aggregate
	for i := 0; i < b.N; i++ {
		agg = sweep.Aggregate{}
		if _, err := sweep.Run(context.Background(), jobs, sweep.Options{Sinks: []sweep.Sink{&agg}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(agg.Jobs), "jobs")
	b.ReportMetric(float64(agg.Committed)*float64(b.N)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkTable1_PipelineThroughput exercises the Table I core at full
// width: a predictable compute kernel measures simulated-instruction
// throughput of the simulator itself.
func BenchmarkTable1_PipelineThroughput(b *testing.B) {
	w, _ := workloads.ByName("exchange2")
	prog := w.Build()
	b.ResetTimer()
	var ipc float64
	for i := 0; i < b.N; i++ {
		res := core.Run(core.Baseline().WithLimits(20_000, 0), prog)
		ipc = res.IPC()
	}
	b.ReportMetric(ipc, "sim-IPC")
}

// BenchmarkTable2_MemoryHierarchy measures the Table II hierarchy on a
// pointer-chasing kernel (every level of the hierarchy is exercised).
func BenchmarkTable2_MemoryHierarchy(b *testing.B) {
	w, _ := workloads.ByName("mcf")
	prog := w.Build()
	b.ResetTimer()
	var miss float64
	for i := 0; i < b.N; i++ {
		res := core.Run(core.Baseline().WithLimits(10_000, 0), prog)
		miss = res.DReadMissRate()
	}
	b.ReportMetric(miss, "dmiss-rate")
}

// BenchmarkFig6to9_ShadowSizing regenerates the occupancy-percentile
// series: the 99.99% shadow-structure sizes under WFC and WFB.
func BenchmarkFig6to9_ShadowSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figures.Sizing(benchSweep(b))
		maxD, maxI := 0, 0
		for _, r := range rows {
			if r.DCacheWFC > maxD {
				maxD = r.DCacheWFC
			}
			if r.ICacheWFC > maxI {
				maxI = r.ICacheWFC
			}
		}
		b.ReportMetric(float64(maxD), "fig7-dcache-p9999")
		b.ReportMetric(float64(maxI), "fig6-icache-p9999")
	}
}

// BenchmarkFig11_NormalizedIPC regenerates the Figure 11 headline: the
// geometric-mean IPC of SafeSpec-WFC normalized to the baseline.
func BenchmarkFig11_NormalizedIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figures.Performance(benchSweep(b))
		b.ReportMetric(figures.GeoMeanNormIPC(rows), "geomean-norm-IPC")
	}
}

// BenchmarkFig12_13_DCacheBehaviour regenerates the d-side series: read
// miss rates (Figure 12) and the shadow share of hits (Figure 13).
func BenchmarkFig12_13_DCacheBehaviour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figures.Performance(benchSweep(b))
		var missWFC, missBase, share float64
		for _, r := range rows {
			missWFC += r.DMissWFC
			missBase += r.DMissBase
			share += r.DShadowHitShare
		}
		n := float64(len(rows))
		b.ReportMetric(missWFC/n, "fig12-dmiss-wfc")
		b.ReportMetric(missBase/n, "fig12-dmiss-base")
		b.ReportMetric(share/n, "fig13-shadow-share")
	}
}

// BenchmarkFig14_15_ICacheBehaviour regenerates the i-side series: miss
// rates (Figure 14) and the shadow share of fetch hits (Figure 15).
func BenchmarkFig14_15_ICacheBehaviour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figures.Performance(benchSweep(b))
		var missWFC, missBase, share float64
		for _, r := range rows {
			missWFC += r.IMissWFC
			missBase += r.IMissBase
			share += r.IShadowHitShare
		}
		n := float64(len(rows))
		b.ReportMetric(missWFC/n, "fig14-imiss-wfc")
		b.ReportMetric(missBase/n, "fig14-imiss-base")
		b.ReportMetric(share/n, "fig15-shadow-share")
	}
}

// BenchmarkFig16_CommitRates regenerates the shadow commit-rate series.
func BenchmarkFig16_CommitRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figures.Performance(benchSweep(b))
		var ci, cd float64
		for _, r := range rows {
			ci += r.CommitRateI
			cd += r.CommitRateD
		}
		n := float64(len(rows))
		b.ReportMetric(ci/n, "fig16-icache-commit")
		b.ReportMetric(cd/n, "fig16-dcache-commit")
	}
}

// BenchmarkTable3_MeltdownSpectre regenerates the Table III security
// matrix: leaks count across {meltdown, v1, v2} × {baseline, wfb, wfc}.
// Expected: baseline leaks all 3, WFB leaks only Meltdown, WFC leaks none.
func BenchmarkTable3_MeltdownSpectre(b *testing.B) {
	set := []attacks.Attack{attacks.Meltdown(), attacks.SpectreV1(), attacks.SpectreV2()}
	for i := 0; i < b.N; i++ {
		counts := map[string]int{}
		for _, a := range set {
			for name, cfg := range map[string]core.Config{
				"baseline": core.Baseline(), "wfb": core.WFB(), "wfc": core.WFC(),
			} {
				out, err := attacks.Execute(a, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if out.Leaked {
					counts[name]++
				}
			}
		}
		b.ReportMetric(float64(counts["baseline"]), "t3-baseline-leaks")
		b.ReportMetric(float64(counts["wfb"]), "t3-wfb-leaks")
		b.ReportMetric(float64(counts["wfc"]), "t3-wfc-leaks")
	}
}

// BenchmarkTable4_OtherStructures regenerates the Table IV matrix:
// I-cache, I-TLB, D-TLB and transient variants under WFB/WFC.
// Expected: zero leaks under both policies; the TSA leaks only through the
// undersized Replace configuration.
func BenchmarkTable4_OtherStructures(b *testing.B) {
	set := []attacks.Attack{attacks.ICacheVariant(), attacks.ITLBVariant(), attacks.DTLBVariant()}
	for i := 0; i < b.N; i++ {
		leaks := 0
		for _, a := range set {
			for _, cfg := range []core.Config{core.WFB(), core.WFC()} {
				out, err := attacks.Execute(a, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if out.Leaked {
					leaks++
				}
			}
		}
		tsa := attacks.TSA{Secret: attacks.DefaultSecret}
		tiny, err := tsa.Run(core.WFC().WithShadowPolicy(attacks.TinyShadowPolicy()))
		if err != nil {
			b.Fatal(err)
		}
		secure, err := tsa.Run(core.WFC())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(leaks), "t4-protected-leaks")
		b.ReportMetric(boolMetric(tiny.Leaked), "t4-tsa-tiny-leak")
		b.ReportMetric(boolMetric(secure.Leaked), "t4-tsa-secure-leak")
	}
}

// BenchmarkTable5_HardwareOverhead regenerates the Table V analytic model.
func BenchmarkTable5_HardwareOverhead(b *testing.B) {
	tech := hwmodel.Tech40nm()
	var rows [2]hwmodel.Report
	for i := 0; i < b.N; i++ {
		rows = hwmodel.TableV(tech, hwmodel.SecureSizes(72, 224), hwmodel.PaperWFCSizes())
	}
	b.ReportMetric(rows[0].PowerMW, "t5-secure-mW")
	b.ReportMetric(rows[0].AreaMM2, "t5-secure-mm2")
	b.ReportMetric(rows[1].PowerMW, "t5-wfc-mW")
	b.ReportMetric(rows[1].AreaMM2, "t5-wfc-mm2")
}

// BenchmarkSimulatorSpeed reports raw simulation speed (cycles/s and
// instructions/s) — useful when sizing longer sweeps.
func BenchmarkSimulatorSpeed(b *testing.B) {
	w, _ := workloads.ByName("x264")
	prog := w.Build()
	var cycles, instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(core.WFC().WithLimits(20_000, 0), prog)
		cycles += res.Cycles
		instrs += res.Committed
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
