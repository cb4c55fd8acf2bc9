package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestRunModes(t *testing.T) {
	for _, mode := range []string{"baseline", "wfb", "wfc"} {
		if err := run(io.Discard, "exchange2", mode, 2000, true, 0, 1); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if err := run(io.Discard, "nope", "wfc", 1000, false, 0, 1); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestRunUnknownMode(t *testing.T) {
	if err := run(io.Discard, "mcf", "turbo", 1000, false, 0, 1); err == nil {
		t.Error("unknown mode must error")
	}
}

// TestRunIntrospect checks the -introspect dump at one and two hardware
// threads: valid JSON under the one versioned schema, occupancy sampled once
// per cycle, one per_thread row per thread, and a single thread's row equal
// to the aggregate.
func TestRunIntrospect(t *testing.T) {
	for _, threads := range []int{1, 2} {
		var buf strings.Builder
		if err := runIntrospect(&buf, "exchange2", "wfc", 5_000, 0, threads); err != nil {
			t.Fatal(err)
		}
		var dump introspectDump
		if err := json.Unmarshal([]byte(buf.String()), &dump); err != nil {
			t.Fatalf("introspect output is not JSON: %v\n%s", err, buf.String())
		}
		if dump.Schema != "safespec/introspect/v2" {
			t.Errorf("threads=%d: schema = %q", threads, dump.Schema)
		}
		if dump.Cycles == 0 || dump.Committed == 0 {
			t.Errorf("threads=%d: empty run: %+v", threads, dump)
		}
		for _, key := range []string{"rob", "issue_queue", "completion_wheel"} {
			h, ok := dump.Occupancy[key]
			if !ok {
				t.Fatalf("threads=%d: occupancy lacks %q", threads, key)
			}
			if h.Samples != dump.Cycles {
				t.Errorf("threads=%d: occupancy[%s]: %d samples over %d cycles", threads, key, h.Samples, dump.Cycles)
			}
		}
		if dump.Threads != threads || len(dump.PerThread) != threads {
			t.Fatalf("threads=%d: dump says %d threads with %d per_thread rows", threads, dump.Threads, len(dump.PerThread))
		}
		for _, row := range dump.PerThread {
			if row.ROB.Samples != dump.Cycles || row.IssueQueue.Samples != dump.Cycles {
				t.Errorf("threads=%d: thread %d: %d/%d samples over %d cycles", threads, row.Thread, row.ROB.Samples, row.IssueQueue.Samples, dump.Cycles)
			}
		}
		if row := dump.PerThread[0]; threads == 1 && (row.ROB != dump.Occupancy["rob"] || row.IssueQueue != dump.Occupancy["issue_queue"]) {
			t.Errorf("single-thread per_thread row %+v differs from the aggregate %+v", row, dump.Occupancy)
		}
		if len(dump.Shadow) != 4 {
			t.Errorf("threads=%d: wfc dump carries %d shadow summaries, want 4", threads, len(dump.Shadow))
		}
	}
}

func TestRunIntrospectBaselineOmitsShadow(t *testing.T) {
	var buf strings.Builder
	if err := runIntrospect(&buf, "exchange2", "baseline", 2_000, 0, 1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"shadow"`) {
		t.Error("baseline dump must omit the shadow block")
	}
}
