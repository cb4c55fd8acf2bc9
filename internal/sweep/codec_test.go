package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"safespec/internal/core"
)

func TestJobHashNormalizationInvariance(t *testing.T) {
	// A zero config and one with the Table I defaults spelled out run
	// identically, so they must share a content address.
	zero := Job{Bench: "mcf", Mode: "baseline", Config: core.Baseline()}
	spelled := zero
	spelled.Config.Pipeline = spelled.Config.Pipeline.Normalize()
	h1, err := zero.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := spelled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("normalization changed the hash: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Errorf("hash %q is not hex sha-256", h1)
	}
}

func TestJobHashDiscriminates(t *testing.T) {
	base := Job{Bench: "mcf", Mode: "baseline", Config: core.Baseline().WithLimits(1000, 0)}
	seen := map[string]string{}
	for _, j := range []Job{
		base,
		{Bench: "gcc", Mode: "baseline", Config: base.Config},
		{Bench: "mcf", Mode: "wfc", Config: core.WFC().WithLimits(1000, 0)},
		{Bench: "mcf", Mode: "baseline", Seed: 7, Config: base.Config},
		{Bench: "mcf", Mode: "baseline", Config: core.Baseline().WithLimits(2000, 0)},
		func() Job {
			j := base
			j.Config.SampleOccupancy = true
			return j
		}(),
	} {
		h, err := j.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %s and %s", prev, j)
		}
		seen[h] = j.String()
	}
}

func TestJobHashStableAcrossCalls(t *testing.T) {
	j := Job{Bench: "lbm", Mode: "wfb", Seed: 3, Config: core.WFB().WithLimits(5000, 100000)}
	h1, _ := j.Hash()
	h2, _ := j.Hash()
	if h1 != h2 {
		t.Errorf("hash not stable: %s vs %s", h1, h2)
	}
}

// TestResultJSONRoundTrip runs a real job and checks that a Result survives
// the wire exactly: the sink row computed from the decoded result is
// identical to the original, including the occupancy histograms behind the
// sizing figures.
func TestResultJSONRoundTrip(t *testing.T) {
	spec := Quick()
	spec.Benchmarks = []string{"exchange2"}
	spec.Instructions = 2_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Result
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.Index != r.Index || back.Job != r.Job || back.Wall != r.Wall {
			t.Errorf("metadata mutated: %+v vs %+v", back, r)
		}
		if MakeRow(back) != MakeRow(r) {
			t.Errorf("row differs after round trip:\n%+v\nvs\n%+v", MakeRow(back), MakeRow(r))
		}
		if r.Res.OccD != nil {
			if back.Res.OccD == nil {
				t.Fatal("occupancy histogram lost on the wire")
			}
			const p = 0.9999
			if back.Res.OccD.Percentile(p) != r.Res.OccD.Percentile(p) ||
				back.Res.OccD.N() != r.Res.OccD.N() {
				t.Errorf("histogram mutated: %v vs %v", back.Res.OccD, r.Res.OccD)
			}
		}
	}
}

// TestResultJSONZeroJobOmitted: a result whose Job is zero (a grid
// worker's report) encodes without the job field and decodes back to the
// zero Job; any other result still carries its job.
func TestResultJSONZeroJobOmitted(t *testing.T) {
	r := Result{Index: 3, Err: errors.New("boom"), Wall: time.Second}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"index":3,"err":"boom","wall_ns":1000000000}`; string(b) != want {
		t.Fatalf("encoded %s, want %s", b, want)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Index != 3 || back.Job != (Job{}) || back.Err.Error() != "boom" || back.Wall != time.Second {
		t.Errorf("round trip mutated: %+v", back)
	}
	r.Job = Job{Bench: "mcf"}
	if b, err = json.Marshal(r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"job":{"Bench":"mcf"`) {
		t.Errorf("a non-zero job was left out: %s", b)
	}
}

// BenchmarkResultCodec times one encode and one decode of a simulated
// result with its occupancy histograms (about 4 KB of JSON), the unit of
// work of every grid hop.
func BenchmarkResultCodec(b *testing.B) {
	spec := Quick()
	spec.Benchmarks = []string{"exchange2"}
	spec.Modes = []ModeSpec{{Name: "wfc", Config: core.WFC()}}
	spec.Instructions = 2_000
	jobs, err := spec.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	results, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := results[0]
	enc, err := json.Marshal(r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for b.Loop() {
			if _, err := json.Marshal(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for b.Loop() {
			var back Result
			if err := json.Unmarshal(enc, &back); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestResultJSONErrorPreserved is the error-serialization contract: an
// error cause must survive as a string across processes.
func TestResultJSONErrorPreserved(t *testing.T) {
	r := Result{
		Index: 3,
		Job:   Job{Bench: "nope", Mode: "baseline"},
		Err:   errors.New(`workloads: unknown benchmark "nope"`),
		Wall:  17 * time.Millisecond,
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Err == nil || back.Err.Error() != r.Err.Error() {
		t.Errorf("error cause lost: %v", back.Err)
	}
	if back.Res != nil {
		t.Errorf("errored result grew a payload: %+v", back.Res)
	}
	if MakeRow(back).Err != MakeRow(r).Err {
		t.Errorf("sink row error differs: %q vs %q", MakeRow(back).Err, MakeRow(r).Err)
	}
}

// TestAggregateCells checks the seed-fan collapse in the Aggregate sink:
// one summary cell per (bench, mode) with a confidence interval, instead of
// duplicate rows.
func TestAggregateCells(t *testing.T) {
	spec := MatrixSpec{
		Benchmarks:   []string{"exchange2"},
		Seeds:        []int64{1, 2, 3},
		Instructions: 2_000,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var agg Aggregate
	if _, err := Run(context.Background(), jobs, Options{Sinks: []Sink{&agg}}); err != nil {
		t.Fatal(err)
	}
	cells := agg.Cells()
	if len(cells) != 3 { // one per mode, not one per (mode, seed)
		t.Fatalf("want 3 cells, got %d: %+v", len(cells), cells)
	}
	order := []string{"baseline", "wfc", "wfb"}
	for i, c := range cells {
		if c.Bench != "exchange2" || c.Mode != order[i] {
			t.Errorf("cell %d = %s/%s, want exchange2/%s (job order)", i, c.Bench, c.Mode, order[i])
		}
		if c.N != 3 {
			t.Errorf("cell %s: N = %d, want 3", c.Mode, c.N)
		}
		if c.MeanIPC <= 0 {
			t.Errorf("cell %s: mean IPC %f", c.Mode, c.MeanIPC)
		}
		if c.CI95 < 0 {
			t.Errorf("cell %s: negative CI", c.Mode)
		}
	}
}
