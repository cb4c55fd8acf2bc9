// Command safespec-sim runs one benchmark kernel under one protection mode
// and prints the full statistics — the workhorse for exploring the
// simulator interactively. The run is dispatched through the internal/sweep
// engine, so it gets the same wall-time accounting and panic isolation as
// the full evaluation sweep. With -introspect the simulator runs directly
// with the deep counter block attached and dumps it as versioned JSON.
//
// Usage:
//
//	safespec-sim -bench mcf -mode wfc -instrs 100000
//	safespec-sim -bench gcc -seed 12345
//	safespec-sim -bench mcf -mode wfc -introspect | jq .
//	safespec-sim -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"safespec/internal/core"
	"safespec/internal/obs"
	"safespec/internal/shadow"
	"safespec/internal/stats"
	"safespec/internal/sweep"
	"safespec/internal/workloads"

	// Registers the attack kernels as named benches (e.g. smt-btb-v2) so
	// -bench accepts them alongside the SPEC-like workloads.
	_ "safespec/internal/attacks"
)

func main() {
	var (
		benchName  = flag.String("bench", "perlbench", "benchmark kernel to run")
		mode       = flag.String("mode", "wfc", "protection mode: baseline|wfb|wfc")
		instrs     = flag.Uint64("instrs", 100_000, "committed instructions to simulate")
		seed       = flag.Int64("seed", 0, "program-generator seed override (0 = benchmark default)")
		threads    = flag.Int("threads", 1, "hardware threads (SMT contexts); 1 = single-thread core")
		list       = flag.Bool("list", false, "list available benchmarks and exit")
		occupancy  = flag.Bool("occupancy", false, "report shadow occupancy percentiles")
		introspect = flag.Bool("introspect", false, "dump deep pipeline counters as JSON (schema safespec/introspect/v2) instead of the stats table")
		logLevel   = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat  = flag.String("log-format", "text", "log format: text|json")
	)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "safespec-sim:", err)
		os.Exit(1)
	}

	if *list {
		for _, name := range workloads.Names() {
			fmt.Fprintln(os.Stdout, name)
		}
		return
	}
	if *introspect {
		err = runIntrospect(os.Stdout, *benchName, *mode, *instrs, *seed, *threads)
	} else {
		err = run(os.Stdout, *benchName, *mode, *instrs, *occupancy, *seed, *threads)
	}
	if err != nil {
		log.Error("run failed", "bench", *benchName, "mode", *mode, "err", err.Error())
		os.Exit(1)
	}
}

func run(w io.Writer, benchName, mode string, instrs uint64, occupancy bool, seed int64, threads int) error {
	cfg, err := modeConfig(mode)
	if err != nil {
		return err
	}
	cfg = cfg.WithLimits(instrs, 0)
	cfg.SampleOccupancy = occupancy
	if threads > 1 {
		cfg.Pipeline.Threads = threads
	}

	job := sweep.Job{Bench: benchName, Mode: mode, Seed: seed, Config: cfg}
	results, err := sweep.Run(context.Background(), []sweep.Job{job}, sweep.Options{Workers: 1})
	if err != nil {
		return err
	}
	if results[0].Err != nil {
		return results[0].Err
	}
	return printStats(w, benchName, occupancy, results[0])
}

// introspectDump is the -introspect JSON schema, versioned so downstream
// tooling can detect incompatible changes: bump the schema string whenever
// a field changes meaning or disappears (adding fields is compatible).
type introspectDump struct {
	Schema string `json:"schema"`
	Bench  string `json:"bench"`
	Mode   string `json:"mode"`
	Seed   int64  `json:"seed"`
	// Threads is the SMT context count (1 for a single-thread core).
	Threads   int    `json:"threads"`
	Cycles    uint64 `json:"cycles"`
	Committed uint64 `json:"committed"`
	Squashes  struct {
		MispredictEvents  uint64 `json:"mispredict_events"`
		TrapEvents        uint64 `json:"trap_events"`
		EntriesMispredict uint64 `json:"entries_mispredict"`
		EntriesTrap       uint64 `json:"entries_trap"`
	} `json:"squashes"`
	// Occupancy keys: rob, issue_queue, completion_wheel. Under SMT these
	// are the summed occupancies across threads.
	Occupancy map[string]histSummary `json:"occupancy"`
	// PerThread breaks ROB and issue-queue occupancy down by hardware
	// thread, each over that thread's static partition; a single-thread run
	// has one row equal to the aggregate.
	PerThread []threadOccupancy `json:"per_thread"`
	// Shadow keys (SafeSpec modes only): dcache, icache, dtlb, itlb.
	Shadow map[string]shadowSummary `json:"shadow,omitempty"`
}

// threadOccupancy is one hardware thread's occupancy block.
type threadOccupancy struct {
	Thread     int         `json:"thread"`
	ROB        histSummary `json:"rob"`
	IssueQueue histSummary `json:"issue_queue"`
}

// histSummary condenses an occupancy histogram into the percentiles the
// sizing studies read.
type histSummary struct {
	Samples uint64  `json:"samples"`
	Mean    float64 `json:"mean"`
	P50     int     `json:"p50"`
	P9999   int     `json:"p99_99"`
	Max     int     `json:"max"`
}

// shadowSummary is one shadow structure's alloc/invalidate/overflow
// accounting.
type shadowSummary struct {
	Allocs      uint64 `json:"allocs"`
	Committed   uint64 `json:"committed"`
	Squashed    uint64 `json:"squashed"`
	DroppedFull uint64 `json:"dropped_full"`
	Replaced    uint64 `json:"replaced"`
	Flushes     uint64 `json:"flushes"`
}

func summarize(h *stats.Histogram) histSummary {
	return histSummary{
		Samples: h.N(),
		Mean:    h.Mean(),
		P50:     h.Percentile(0.5),
		P9999:   h.Percentile(0.9999),
		Max:     h.Max(),
	}
}

// runIntrospect runs the simulator directly (not through the sweep engine:
// introspection attaches to the CPU, below the executor's surface) and
// dumps the deep counters. Introspection is deliberately not part of
// core.Config, so the run's result-cache identity is the same as an
// unobserved run's.
func runIntrospect(w io.Writer, benchName, mode string, instrs uint64, seed int64, threads int) error {
	cfg, err := modeConfig(mode)
	if err != nil {
		return err
	}
	cfg = cfg.WithLimits(instrs, 0)
	if threads > 1 {
		cfg.Pipeline.Threads = threads
	}
	n := cfg.Pipeline.NumThreads()
	prog, err := workloads.Program(benchName, seed, n)
	if err != nil {
		return err
	}
	sim := core.New(cfg, prog)
	in := sim.CPU().EnableIntrospection()
	res := sim.Run()

	dump := introspectDump{
		Schema:    "safespec/introspect/v2",
		Bench:     benchName,
		Mode:      mode,
		Seed:      seed,
		Threads:   n,
		Cycles:    res.Cycles,
		Committed: res.Committed,
		Occupancy: map[string]histSummary{
			"rob":              summarize(in.ROBOccupancy),
			"issue_queue":      summarize(in.IQOccupancy),
			"completion_wheel": summarize(in.WheelOccupancy),
		},
	}
	// A single-thread core samples no per-thread histograms: its one
	// thread's occupancy is the aggregate.
	rob, iq := in.ThreadROB, in.ThreadIQ
	if n == 1 {
		rob, iq = []*stats.Histogram{in.ROBOccupancy}, []*stats.Histogram{in.IQOccupancy}
	}
	for tid := range rob {
		dump.PerThread = append(dump.PerThread, threadOccupancy{
			Thread:     tid,
			ROB:        summarize(rob[tid]),
			IssueQueue: summarize(iq[tid]),
		})
	}
	dump.Squashes.MispredictEvents = in.MispredictSquashes
	dump.Squashes.TrapEvents = in.TrapSquashes
	dump.Squashes.EntriesMispredict = in.SquashedByMispredict
	dump.Squashes.EntriesTrap = in.SquashedByTrap
	if res.Mode.SafeSpec() {
		dump.Shadow = map[string]shadowSummary{
			"dcache": shadowFrom(res.ShD),
			"icache": shadowFrom(res.ShI),
			"dtlb":   shadowFrom(res.ShDTLB),
			"itlb":   shadowFrom(res.ShITLB),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

func shadowFrom(s shadow.Stats) shadowSummary {
	return shadowSummary{
		Allocs:      s.Allocs,
		Committed:   s.Committed,
		Squashed:    s.Squashed,
		DroppedFull: s.DroppedFull,
		Replaced:    s.Replaced,
		Flushes:     s.Flushes,
	}
}

// modeConfig resolves -mode against sweep.StandardModes so the CLI accepts
// exactly the mode set the evaluation matrix runs.
func modeConfig(mode string) (core.Config, error) {
	specs := sweep.StandardModes()
	names := make([]string, len(specs))
	for i, m := range specs {
		if m.Name == mode {
			return m.Config, nil
		}
		names[i] = m.Name
	}
	return core.Config{}, fmt.Errorf("unknown mode %q (want %s)", mode, strings.Join(names, "|"))
}

func printStats(w io.Writer, benchName string, occupancy bool, jr sweep.Result) error {
	res := jr.Res
	fmt.Fprintf(w, "benchmark      %s\n", benchName)
	fmt.Fprintf(w, "mode           %s\n", res.Mode)
	fmt.Fprintf(w, "wall time      %v\n", jr.Wall.Round(time.Microsecond))
	fmt.Fprintf(w, "cycles         %d\n", res.Cycles)
	fmt.Fprintf(w, "committed      %d (IPC %.3f)\n", res.Committed, res.IPC())
	fmt.Fprintf(w, "  loads/stores %d / %d\n", res.CommittedLoads, res.CommittedStores)
	fmt.Fprintf(w, "squashed       %d\n", res.Squashed)
	fmt.Fprintf(w, "mispredicts    %d (rate %.4f)\n", res.Mispredicts, res.Bpred.MispredictRate())
	fmt.Fprintf(w, "d-reads        %d (miss rate %.4f, shadow hit share %.3f)\n",
		res.DReads, res.DReadMissRate(), res.DShadowHitShare())
	fmt.Fprintf(w, "i-fetches      %d (miss rate %.4f, shadow hit share %.3f)\n",
		res.IFetches, res.IFetchMissRate(), res.IShadowHitShare())
	fmt.Fprintf(w, "L1D            %d hits / %d misses\n", res.L1D.Hits, res.L1D.Misses)
	fmt.Fprintf(w, "L1I            %d hits / %d misses\n", res.L1I.Hits, res.L1I.Misses)
	fmt.Fprintf(w, "L2 / L3 miss   %.4f / %.4f\n", res.L2.MissRate(), res.L3.MissRate())
	fmt.Fprintf(w, "dTLB / iTLB    %.4f / %.4f miss\n", res.DTLB.MissRate(), res.ITLB.MissRate())
	if res.Mode.SafeSpec() {
		fmt.Fprintf(w, "shadow d$      %d allocs, commit rate %.3f\n", res.ShD.Allocs, res.ShD.CommitRate())
		fmt.Fprintf(w, "shadow i$      %d allocs, commit rate %.3f\n", res.ShI.Allocs, res.ShI.CommitRate())
		fmt.Fprintf(w, "shadow dTLB    %d allocs, commit rate %.3f\n", res.ShDTLB.Allocs, res.ShDTLB.CommitRate())
		fmt.Fprintf(w, "shadow iTLB    %d allocs, commit rate %.3f\n", res.ShITLB.Allocs, res.ShITLB.CommitRate())
		if occupancy && res.OccD != nil {
			fmt.Fprintf(w, "occupancy p99.99  d$=%d i$=%d dTLB=%d iTLB=%d\n",
				res.OccD.Percentile(0.9999), res.OccI.Percentile(0.9999),
				res.OccDTLB.Percentile(0.9999), res.OccITLB.Percentile(0.9999))
		}
	}
	return nil
}
