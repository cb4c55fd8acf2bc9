// Command safespec-overhead regenerates Table V: the area and power cost
// of the SafeSpec shadow structures at 40nm, for both the Secure
// (worst-case) and the WFC (99.99th-percentile) sizing.
//
// Usage:
//
//	safespec-overhead                      # paper's published sizings
//	safespec-overhead -ldq 72 -rob 224     # change the worst-case bounds
//	safespec-overhead -wfc 28,25,25,10     # custom WFC sizing (d$,i$,dtlb,itlb)
//
// For the WFC sizing measured by a fresh workload sweep, run
// safespec-bench -figs overhead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"safespec/internal/figures"
	"safespec/internal/hwmodel"
)

func main() {
	var (
		ldq     = flag.Int("ldq", 72, "load-queue size bounding the data-side worst case")
		rob     = flag.Int("rob", 224, "ROB size bounding the instruction-side worst case")
		wfcSpec = flag.String("wfc", "", "WFC sizing as d$,i$,dtlb,itlb (default: paper's values)")
	)
	flag.Parse()
	if err := run(*ldq, *rob, *wfcSpec); err != nil {
		fmt.Fprintln(os.Stderr, "safespec-overhead:", err)
		os.Exit(1)
	}
}

func run(ldq, rob int, wfcSpec string) error {
	tech := hwmodel.Tech40nm()
	secure := hwmodel.SecureSizes(ldq, rob)

	var rows [2]hwmodel.Report
	switch {
	case wfcSpec != "":
		parts := strings.Split(wfcSpec, ",")
		if len(parts) != 4 {
			return fmt.Errorf("-wfc wants 4 comma-separated sizes, got %q", wfcSpec)
		}
		var sizes [4]int
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("-wfc component %d: %v", i, err)
			}
			sizes[i] = v
		}
		wfc := hwmodel.ShadowSizes{DCache: sizes[0], ICache: sizes[1], DTLB: sizes[2], ITLB: sizes[3]}
		rows = hwmodel.TableV(tech, secure, wfc)
	default:
		rows = hwmodel.TableV(tech, secure, hwmodel.PaperWFCSizes())
	}

	fmt.Fprintln(os.Stdout, "Table V: SafeSpec hardware overhead at 40nm")
	fmt.Fprint(os.Stdout, figures.FormatTableV(rows))
	return nil
}
