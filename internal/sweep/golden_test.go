package sweep_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"safespec/internal/sweep"
)

// The Quick golden files below were generated from the pre-SMT-refactor
// tree, the Full golden from the tree before the O(1)-per-Step scheduler
// (set UPDATE_GOLDEN=1 to regenerate — only ever from a commit whose
// single-thread output is known-good). They pin three things across the
// per-thread pipeline refactor and any future change:
//
//   - the JSONL sink bytes of the pinned Quick matrix (the exact stream CI
//     compares across worker counts, the grid and the result cache),
//   - the JSONL sink bytes of the Full matrix, and
//   - every Quick job's content-address (sweep.Job.Hash), so warm result
//     caches written before the refactor stay valid for Threads=1 cells.

const (
	goldenJSONL     = "testdata/quick_threads1.jsonl"
	goldenHashes    = "testdata/quick_threads1.hashes"
	goldenFullJSONL = "testdata/full_threads1.jsonl"
)

func quickJobs(t *testing.T) []sweep.Job {
	t.Helper()
	jobs, err := sweep.Quick().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func maybeUpdate(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") == "" {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, got, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenQuickJSONLByteIdentity runs the pinned Quick matrix locally and
// requires the JSONL sink output to be byte-identical to the saved
// pre-refactor stream.
func TestGoldenQuickJSONLByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Quick matrix")
	}
	checkGoldenJSONL(t, quickJobs(t), goldenJSONL)
}

// TestGoldenFullJSONLByteIdentity pins the Full preset (every kernel under
// every mode, seed 0), so a simulator change must keep all of the figure
// rows byte-identical, not only the Quick subset. It is skipped under the
// race detector: each cell runs on one goroutine, so -race would add ~10x
// run time and check nothing the Quick golden does not.
func TestGoldenFullJSONLByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Full matrix")
	}
	if raceEnabled {
		t.Skip("single-goroutine simulation; covered without -race")
	}
	jobs, err := sweep.Full().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenJSONL(t, jobs, goldenFullJSONL)
}

// checkGoldenJSONL runs jobs locally and requires the JSONL sink output to
// match the golden file at path byte for byte.
func checkGoldenJSONL(t *testing.T, jobs []sweep.Job, path string) {
	t.Helper()
	var buf bytes.Buffer
	_, err := sweep.Run(context.Background(), jobs,
		sweep.Options{Workers: 4, Sinks: []sweep.Sink{sweep.NewJSONL(&buf)}})
	if err != nil {
		t.Fatal(err)
	}
	maybeUpdate(t, path, buf.Bytes())
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: JSONL diverged from golden (%d vs %d bytes);\n"+
			"single-thread results must stay byte-identical", path, buf.Len(), len(want))
	}
}

// TestGoldenQuickJobHashes pins every Quick job's content address: a changed
// hash would silently invalidate (or worse, alias) warm result-cache entries
// for unchanged single-thread cells.
func TestGoldenQuickJobHashes(t *testing.T) {
	var buf bytes.Buffer
	for _, j := range quickJobs(t) {
		h, err := j.Hash()
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(j.String() + " " + h + "\n")
	}
	maybeUpdate(t, goldenHashes, buf.Bytes())
	want, err := os.ReadFile(goldenHashes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Quick-matrix job hashes diverged from pre-refactor golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// goldenQuickThreads2 pins the Quick matrix at two hardware threads, so the
// SMT path (per-thread retirement counters, sibling shadow state, the
// shared front end) is held byte-identical the way the single-thread
// goldens hold Threads=1.
const goldenQuickThreads2 = "testdata/quick_threads2.jsonl"

// TestGoldenQuickThreads2JSONLByteIdentity runs the Quick matrix at
// Threads=2 and requires its JSONL to match the pinned stream.
func TestGoldenQuickThreads2JSONLByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Quick matrix at two threads")
	}
	m := sweep.Quick()
	m.Threads = []int{2}
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenJSONL(t, jobs, goldenQuickThreads2)
}
