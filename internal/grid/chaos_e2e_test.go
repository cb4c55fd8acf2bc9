package grid

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"safespec/internal/chaos"
	"safespec/internal/resultcache"
	"safespec/internal/sweep"
)

// TestChaosEndToEnd is the fault-tolerance acceptance property: with seeded
// fault injectors dropping, delaying, 500-ing, truncating and bit-flipping
// traffic on every wire path (worker lease/result, executor submit/stream)
// and corrupting result-cache reads, a distributed sweep must still produce
// JSONL output byte-identical to a local run — zero lost cells, zero
// duplicated cells, zero error rows. Retries, lease expiry, submission
// nonces, wire checksums and cache entry checksums each absorb one fault
// class; this test turns them all on at once.
func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e exercises real lease-TTL waits")
	}
	jobs := smallJobs(t)

	var localBuf bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs, sweep.Options{
		Sinks: []sweep.Sink{sweep.NewJSONL(&localBuf)},
	}); err != nil {
		t.Fatal(err)
	}
	local := localBuf.String()

	faults := chaos.Config{
		Drop:        0.10,
		Delay:       0.05,
		MaxDelay:    5 * time.Millisecond,
		Err500:      0.05,
		PartialBody: 0.05,
		FlipByte:    0.05,
	}
	seeded := func(seed int64) chaos.Config { c := faults; c.Seed = seed; return c }

	// A short lease TTL bounds how long a lease grant lost to a dropped
	// response stays stuck; generous MaxAttempts keeps repeated bad luck on
	// one job from converting into an error row.
	server := NewServer(ServerOptions{LeaseTTL: time.Second, MaxAttempts: 10})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	// The workers share a result cache whose reads are corrupted at a high
	// rate: damaged entries must degrade to misses (re-simulation), never
	// poison a result.
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cacheInj := chaos.New(chaos.Config{Seed: 99, FlipByte: 0.25})
	cache.SetReadFault(cacheInj.Corrupt)
	// Pre-warm the cache so the grid run actually reads entries (and so
	// corrupted reads must degrade to re-simulation, not poisoned rows).
	warm := resultcache.NewExecutor(cache, nil)
	for i, j := range jobs {
		if _, err := warm.Execute(context.Background(), i, j); err != nil {
			t.Fatal(err)
		}
	}

	wctx, stopWorkers := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	injectors := []*chaos.Injector{cacheInj}
	for i := 0; i < 2; i++ {
		inj := chaos.New(seeded(int64(100 + i)))
		injectors = append(injectors, inj)
		w := &Worker{
			Coordinator: srv.URL,
			ID:          fmt.Sprintf("cw%d", i),
			Parallel:    2,
			Poll:        5 * time.Millisecond,
			Client:      &http.Client{Transport: inj.Transport(nil), Timeout: 30 * time.Second},
			Exec:        resultcache.NewExecutor(cache, nil),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); err != nil {
				t.Errorf("worker under chaos exited: %v", err)
			}
		}()
	}
	defer func() {
		stopWorkers()
		wg.Wait()
	}()

	execInj := chaos.New(seeded(42))
	injectors = append(injectors, execInj)
	re := &RemoteExecutor{
		URL:      srv.URL,
		PollWait: 250 * time.Millisecond,
		Client:   &http.Client{Transport: execInj.Transport(nil), Timeout: 90 * time.Second},
	}

	runCtx, cancelRun := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelRun()
	var remoteBuf bytes.Buffer
	results, err := sweep.Run(runCtx, jobs, sweep.Options{
		Workers:  len(jobs),
		Executor: re,
		Sinks:    []sweep.Sink{sweep.NewJSONL(&remoteBuf)},
	})
	if err != nil {
		t.Fatalf("sweep under chaos: %v", err)
	}
	// Close's DELETE rides the same chaotic client; a fault there affects
	// only sweep-TTL cleanup on the server, not the results under test.
	_ = re.Close()

	if len(results) != len(jobs) {
		t.Fatalf("sweep returned %d results for %d jobs", len(results), len(jobs))
	}
	seen := make(map[int]bool, len(results))
	for _, res := range results {
		if res.Err != nil {
			t.Errorf("cell %d errored under chaos: %v", res.Index, res.Err)
		}
		if seen[res.Index] {
			t.Errorf("cell %d delivered twice", res.Index)
		}
		seen[res.Index] = true
	}
	if remoteBuf.String() != local {
		t.Errorf("chaos run diverged from local:\n%s\nvs\n%s", remoteBuf.String(), local)
	}

	// The run must actually have been chaotic: across all injectors, every
	// fault class fired at least once (the seeds above are chosen so ~5-10%%
	// rates over hundreds of requests make this overwhelmingly likely; a
	// zero here means the injector came unwired, not bad luck).
	var total chaos.Stats
	for _, inj := range injectors {
		st := inj.Stats()
		total.Drops += st.Drops
		total.Delays += st.Delays
		total.Errs += st.Errs
		total.Partials += st.Partials
		total.Flips += st.Flips
		total.Passed += st.Passed
	}
	if total.Drops == 0 || total.Errs == 0 || total.Flips == 0 {
		t.Errorf("chaos never fired: %+v", total)
	}
	if cs := cache.Stats(); cs.Errors == 0 {
		t.Logf("note: no cache entry was corrupted this run (stats %+v)", cs)
	}
}
