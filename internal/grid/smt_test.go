package grid

import (
	"bytes"
	"context"
	"testing"

	"safespec/internal/sweep"

	// Registers the attack kernels (smt-btb-v2) as named benches, as the
	// worker binary does.
	_ "safespec/internal/attacks"
)

// TestGridSMTEndToEnd: Threads=2 cells survive the wire. A distributed run
// over two worker processes must produce byte-identical JSONL to a local
// run of the same SMT matrix — the thread count rides inside Job.Config,
// and the registered attack kernel must resolve on the leasing worker.
func TestGridSMTEndToEnd(t *testing.T) {
	spec := sweep.MatrixSpec{
		Benchmarks:   []string{"exchange2", "smt-btb-v2"},
		Instructions: 2_000,
		MaxCycles:    2_000_000,
		Threads:      []int{2},
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	runWith := func(exec sweep.Executor, workers int) string {
		var jsonl bytes.Buffer
		if _, err := sweep.Run(context.Background(), jobs, sweep.Options{
			Workers:  workers,
			Executor: exec,
			Sinks:    []sweep.Sink{sweep.NewJSONL(&jsonl)},
		}); err != nil {
			t.Fatal(err)
		}
		return jsonl.String()
	}

	local := runWith(nil, 0)

	_, url := startServer(t, ServerOptions{})
	stop := startWorkers(t, url, 2)
	defer stop()

	remote := runWith(remoteExec(t, url), len(jobs))
	if local != remote {
		t.Errorf("distributed SMT output differs from local:\n%s\nvs\n%s", local, remote)
	}
}
