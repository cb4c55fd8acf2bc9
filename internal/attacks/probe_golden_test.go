package attacks

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safespec/internal/core"
)

// goldenProbes pins what every attack's receiver measures (set
// UPDATE_GOLDEN=1 to regenerate — only from a commit whose timings are
// known-good): the run's cycle count and all probe times of each attack
// under each mode for every secret, and each TSA bit program's cycle count
// and timed load under the tiny and the secure shadow sizing. The leak
// matrix only checks verdicts; these timings are what any change in when
// a fill reaches the committed cache, or in when a shadow entry is freed,
// would move first.
const goldenProbes = "testdata/probe_cycles.txt"

// probeRows renders one line per attack × mode × secret and per TSA
// sizing × secret × bit.
func probeRows(t *testing.T) string {
	t.Helper()
	modes := []struct {
		name string
		cfg  core.Config
	}{{"baseline", core.Baseline()}, {"wfb", core.WFB()}, {"wfc", core.WFC()}}
	var sb strings.Builder
	for _, a := range All() {
		for _, m := range modes {
			for secret := int64(1); secret < Slots; secret++ {
				a.Secret = secret
				out, err := Execute(a, m.cfg)
				if err != nil {
					t.Fatalf("%s/%s/secret=%d: %v", a.Name, m.name, secret, err)
				}
				fmt.Fprintf(&sb, "%s/%s/secret=%d cycles=%d times=%v\n",
					a.Name, m.name, secret, out.Cycles, out.Times)
			}
		}
	}
	sizings := []struct {
		name string
		cfg  core.Config
	}{{"tiny", core.WFC().WithShadowPolicy(TinyShadowPolicy())}, {"secure", core.WFC()}}
	for _, s := range sizings {
		for secret := int64(1); secret < Slots; secret++ {
			tsa := TSA{Secret: secret}
			for bit := 0; bit < 4; bit++ {
				prog, err := tsa.Program(bit)
				if err != nil {
					t.Fatal(err)
				}
				sim := core.Acquire(s.cfg, prog)
				cycles := sim.Run().Cycles
				times, err := readResults(sim, 1)
				sim.Release()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sb, "tsa/%s/secret=%d/bit=%d cycles=%d time=%d\n",
					s.name, secret, bit, cycles, times[0])
			}
		}
	}
	return sb.String()
}

// TestProbeCyclesGolden fails on any attack or TSA run whose cycle count or
// probe timings differ from the pinned ones.
func TestProbeCyclesGolden(t *testing.T) {
	got := probeRows(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenProbes), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenProbes, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenProbes)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotRows := strings.Split(strings.TrimSpace(got), "\n")
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%d probe rows, golden has %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("probe timing changed:\n got  %s\n want %s", gotRows[i], wantRows[i])
		}
	}
}
