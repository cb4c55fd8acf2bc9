package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"safespec/internal/sweep"
)

// goldenQuick is the pinned Quick-matrix JSONL the simulator's own golden
// test compares against, read from the checkout the benchmark runs in.
const goldenQuick = "internal/sweep/testdata/quick_threads1.jsonl"

// quickGolden is the warm-up every workload starts with: it runs the pinned
// Quick matrix and compares its JSONL rows with the golden file byte for
// byte. Each differing or missing row is a failed cell.
func quickGolden(ctx context.Context, tr *tracer) (cells, failed int, err error) {
	want, err := os.ReadFile(goldenQuick)
	if err != nil {
		return 0, 0, fmt.Errorf("quick golden: %w", err)
	}
	jobs, err := sweep.Quick().Jobs()
	if err != nil {
		return 0, 0, err
	}
	if err := genKernels(jobs, tr); err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	if _, err := sweep.Run(ctx, jobs, sweep.Options{Workers: workers, Sinks: []sweep.Sink{sweep.NewJSONL(&buf)}}); err != nil {
		return 0, 0, fmt.Errorf("quick golden: %w", err)
	}
	return len(jobs), rowMismatches(buf.Bytes(), want), nil
}

// rowMismatches counts the JSONL rows of got that differ from want, are
// missing from it, or record a job error.
func rowMismatches(got, want []byte) int {
	g := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	w := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	bad := 0
	for i := range max(len(g), len(w)) {
		switch {
		case i >= len(g) || i >= len(w) || !bytes.Equal(g[i], w[i]):
			bad++
		case bytes.Contains(g[i], []byte(`"err":`)):
			bad++
		}
	}
	return bad
}

// genKernels generates every distinct kernel the jobs use through the
// workloads memo, so the passes only ever hit it; the time is
// workloads.program_ms_total.
func genKernels(jobs []sweep.Job, tr *tracer) error {
	start := time.Now()
	for _, j := range jobs {
		if _, err := j.Program(); err != nil {
			return err
		}
	}
	tr.programNS += int64(time.Since(start))
	return nil
}

// workDir makes a private scratch directory under .bench_build in the
// checkout; the caller removes it.
func workDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// childSetup measures one setup_s sample in a fresh process running the
// same workload and seed, and waits for it to exit.
func childSetup(ctx context.Context, o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup sample: %w", err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
	}
	v, ok := strings.CutPrefix(last, "setup_s ")
	if !ok {
		return 0, fmt.Errorf("setup sample: unexpected output %q", last)
	}
	return strconv.ParseFloat(v, 64)
}

// rssSampleEvery is how often rssSampler reads the resident set. The Go
// runtime hands freed pages back to the OS slowly, so a peak lasts far
// longer than this.
const rssSampleEvery = 2 * time.Millisecond

// rssSampler polls the process's resident set and keeps its maximum since
// the last take, so each timed pass gets its own peak.
type rssSampler struct {
	mu   sync.Mutex
	max  float64
	err  error
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(rssSampleEvery)
	defer t.Stop()
	for {
		mb, err := residentMB()
		s.mu.Lock()
		if err != nil && s.err == nil {
			s.err = err
		}
		s.max = max(s.max, mb)
		s.mu.Unlock()
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}

// take returns the peak since the previous take and starts a new window at
// the current resident set.
func (s *rssSampler) take() (float64, error) {
	cur, err := residentMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := max(s.max, cur)
	s.max = cur
	return peak, errors.Join(s.err, err)
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// residentMB reads the process's current resident set from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
