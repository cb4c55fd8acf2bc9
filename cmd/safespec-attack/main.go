// Command safespec-attack runs the proof-of-concept speculation attacks
// against the simulated CPU under each protection mode and prints the leak
// matrix (the paper's Tables III and IV). The attack × mode cells execute
// concurrently on the internal/sweep worker pool; the printed matrix is
// always in attack-major, baseline/wfb/wfc order regardless of scheduling.
//
// Usage:
//
//	safespec-attack                 # all attacks, all modes
//	safespec-attack -attack meltdown -mode wfb -v
//	safespec-attack -workers 1      # serial execution
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"safespec/internal/attacks"
	"safespec/internal/core"
	"safespec/internal/sweep"
)

func main() {
	var (
		attackName = flag.String("attack", "", "single attack to run (default: all)")
		modeName   = flag.String("mode", "", "single mode to run (default: all)")
		verbose    = flag.Bool("v", false, "print per-slot probe timings")
		workers    = flag.Int("workers", 0, "attack worker pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if err := run(*attackName, *modeName, *verbose, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "safespec-attack:", err)
		os.Exit(1)
	}
}

// cell is one attack × mode entry of the leak matrix.
type cell struct {
	attack attacks.Attack
	mode   string
	cfg    core.Config
	out    attacks.Outcome
	err    error
}

func run(attackName, modeName string, verbose bool, workers int) error {
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"baseline", core.Baseline()},
		{"wfb", core.WFB()},
		{"wfc", core.WFC()},
	}

	var cells []cell
	for _, a := range attacks.All() {
		if attackName != "" && a.Name != attackName {
			continue
		}
		for _, m := range modes {
			if modeName != "" && m.name != modeName {
				continue
			}
			cells = append(cells, cell{attack: a, mode: m.name, cfg: m.cfg})
		}
	}

	// Each Execute draws a simulator from core's shared pool and reads its
	// results before releasing it, and the memoized attack programs are
	// read-only, so the cells are independent; results land in the cell
	// slice, keeping the printed order fixed.
	err := sweep.ForEach(context.Background(), len(cells), workers,
		func(_ context.Context, i int) error {
			cells[i].out, cells[i].err = attacks.Execute(cells[i].attack, cells[i].cfg)
			return cells[i].err
		})

	// A failed cell must not discard the rest of the matrix: print every
	// computed row (errored cells flagged in place), then propagate the error.
	fmt.Fprintf(os.Stdout, "%-16s %-9s %-8s %-10s %s\n", "attack", "mode", "leaked", "recovered", "planted")
	for _, c := range cells {
		if c.err != nil {
			fmt.Fprintf(os.Stdout, "%-16s %-9s error: %v\n", c.attack.Name, c.mode, c.err)
			continue
		}
		fmt.Fprintf(os.Stdout, "%-16s %-9s %-8v %-10d %d\n", c.attack.Name, c.mode, c.out.Leaked, c.out.Recovered, c.out.Secret)
		if verbose {
			fmt.Fprintf(os.Stdout, "    probe cycles: %v\n", c.out.Times)
		}
	}
	if err != nil {
		return err
	}

	if attackName == "" || attackName == "tsa" {
		tsa := attacks.TSA{Secret: attacks.DefaultSecret}
		tiny := core.WFC().WithShadowPolicy(attacks.TinyShadowPolicy())
		out, err := tsa.Run(tiny)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "%-16s %-9s %-8v %-10d %d\n", "tsa (tiny)", "wfc", out.Leaked, out.Recovered, out.Secret)
		if verbose {
			fmt.Fprintf(os.Stdout, "    per-bit cycles: %v\n", out.BitTimes)
		}
		out, err = tsa.Run(core.WFC())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "%-16s %-9s %-8v %-10d %d\n", "tsa (secure)", "wfc", out.Leaked, out.Recovered, out.Secret)
	}
	return nil
}
