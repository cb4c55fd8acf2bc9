package sweep_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"safespec/internal/sweep"

	// Registers the attack kernels (smt-btb-v2) as named benches.
	_ "safespec/internal/attacks"
)

// smtSpec is the SMT smoke matrix: a mixed bag of a SPEC-like kernel and
// the cross-thread attack kernel, every mode, two hardware threads.
func smtSpec() sweep.MatrixSpec {
	return sweep.MatrixSpec{
		Benchmarks:   []string{"exchange2", "smt-btb-v2"},
		Instructions: 5_000,
		MaxCycles:    2_000_000,
		Threads:      []int{2},
	}
}

// TestSMTDeterministicAcrossWorkers: Threads=2 cells must produce
// byte-identical JSONL for any worker count, exactly like single-thread
// cells — the property CI gates on.
func TestSMTDeterministicAcrossWorkers(t *testing.T) {
	jobs, err := smtSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(workers int) string {
		var buf bytes.Buffer
		if _, err := sweep.Run(context.Background(), jobs,
			sweep.Options{Workers: workers, Sinks: []sweep.Sink{sweep.NewJSONL(&buf)}}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := runWith(1)
	parallel := runWith(8)
	if serial != parallel {
		t.Fatalf("SMT sweep output differs across worker counts:\n%s\nvs\n%s", serial, parallel)
	}
	if !strings.Contains(serial, `"threads":2`) {
		t.Fatalf("SMT rows lack the threads field:\n%s", serial)
	}
	lines := strings.Split(strings.TrimSpace(serial), "\n")
	if want := len(jobs); len(lines) != want {
		t.Fatalf("got %d rows, want %d", len(lines), want)
	}
	for _, line := range lines {
		if strings.Contains(line, `"err"`) {
			t.Errorf("errored SMT row: %s", line)
		}
	}
}

// TestSMTThreadsAxisInJobIdentity: the thread count must flow into both the
// human label and the content address, so Threads=2 cells can never alias a
// warm single-thread cache entry.
func TestSMTThreadsAxisInJobIdentity(t *testing.T) {
	spec := sweep.Quick()
	spec.Benchmarks = []string{"exchange2"}
	spec.Threads = []int{1, 2}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Three modes x two thread counts.
	if len(jobs) != 6 {
		t.Fatalf("got %d jobs, want 6", len(jobs))
	}
	hashes := make(map[string]string)
	for _, j := range jobs {
		h := j.Hash()
		if prev, dup := hashes[h]; dup {
			t.Errorf("jobs %s and %s share hash %s", prev, j.String(), h)
		}
		hashes[h] = j.String()
		n := j.Config.Pipeline.NumThreads()
		if n > 1 && !strings.Contains(j.String(), "/t2") {
			t.Errorf("SMT job label lacks thread segment: %s", j.String())
		}
		if n == 1 && strings.Contains(j.String(), "/t") {
			t.Errorf("single-thread job label grew a thread segment: %s", j.String())
		}
	}
}
