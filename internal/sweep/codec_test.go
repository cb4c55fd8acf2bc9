package sweep

import (
	"context"
	"encoding/json"
	"errors"
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
	h1, h2 := zero.Hash(), spelled.Hash()
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
		h := j.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %s and %s", prev, j)
		}
		seen[h] = j.String()
	}
}

func TestJobHashStableAcrossCalls(t *testing.T) {
	j := Job{Bench: "lbm", Mode: "wfb", Seed: 3, Config: core.WFB().WithLimits(5000, 100000)}
	h1, h2 := j.Hash(), j.Hash()
	if h1 != h2 {
		t.Errorf("hash not stable: %s vs %s", h1, h2)
	}
}

// TestResultJSONRoundTrip runs a real job and checks that a Result survives
// the wire exactly: the sink row computed from the decoded result, under
// the job the receiver holds, is identical to the original, including the
// occupancy histograms behind the sizing figures.
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
		b, err := json.Marshal(r.Wire())
		if err != nil {
			t.Fatal(err)
		}
		var w WireResult
		if err := json.Unmarshal(b, &w); err != nil {
			t.Fatal(err)
		}
		back := w.Result()
		if back.Index != r.Index || back.Job != (Job{}) || back.Wall != r.Wall {
			t.Errorf("metadata mutated: %+v vs %+v", back, r)
		}
		back.Job = r.Job
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

// TestResultJSONZeroJobOmitted: the wire form of a result never carries
// its job, whether the job is zero (a grid worker's report) or not, and
// decodes back to the zero Job. An earlier encoding that still carries a
// "job" key decodes alike: the key is ignored.
func TestResultJSONZeroJobOmitted(t *testing.T) {
	const want = `{"index":3,"err":"boom","wall_ns":1000000000}`
	for _, job := range []Job{{}, {Bench: "mcf"}} {
		r := Result{Index: 3, Job: job, Err: errors.New("boom"), Wall: time.Second}
		b, err := json.Marshal(r.Wire())
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Fatalf("job %s encoded %s, want %s", job, b, want)
		}
	}
	for _, b := range []string{want, `{"index":3,"job":{"Bench":"mcf","Mode":"wfc"},"err":"boom","wall_ns":1000000000}`} {
		var w WireResult
		if err := json.Unmarshal([]byte(b), &w); err != nil {
			t.Fatal(err)
		}
		back := w.Result()
		if back.Index != 3 || back.Job != (Job{}) || back.Err.Error() != "boom" || back.Wall != time.Second {
			t.Errorf("%s decodes to %+v", b, back)
		}
	}
}

// batchResults is how many results BenchmarkResultCodec decodes per batch.
const batchResults = 16

// BenchmarkResultCodec times the grid wire path of a simulated result with
// its occupancy histograms (about 3 KB of JSON): encoding one result, as a
// worker report and the coordinator's log do, and decoding a batch of
// batchResults of them, as a result-stream poll does. Each runs through the
// result codec and, for comparison, through encoding/json. us/result is the
// decode cost per result.
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
	w := results[0].Wire()
	enc := AppendWireResult(nil, w)
	batch := []byte(`{"results":[`)
	for i := range batchResults {
		if i > 0 {
			batch = append(batch, ',')
		}
		batch = append(batch, enc...)
	}
	batch = append(batch, "]}"...)
	encoders := map[string]func() []byte{
		"codec": func() []byte { return MarshalWireResult(w) },
		"json": func() []byte {
			b, _ := json.Marshal(w)
			return b
		},
	}
	decoders := map[string]func() []WireResult{
		"codec": func() []WireResult {
			s := NewScan(batch)
			rs := s.Lit(`{"results":`).WireResults()
			if !s.Lit("}").Done() {
				return nil
			}
			return rs
		},
		"json": func() []WireResult {
			var back struct{ Results []WireResult }
			json.Unmarshal(batch, &back)
			return back.Results
		},
	}
	for _, name := range []string{"codec", "json"} {
		b.Run("encode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for b.Loop() {
				if len(encoders[name]()) != len(enc) {
					b.Fatal("encoding moved")
				}
			}
		})
	}
	for _, name := range []string{"codec", "json"} {
		b.Run("decode-batch/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(batch)))
			for b.Loop() {
				if len(decoders[name]()) != batchResults {
					b.Fatal("batch did not decode")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batchResults), "us/result")
		})
	}
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
	b, err := json.Marshal(r.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireResult
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	back := w.Result()
	back.Job = r.Job
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
