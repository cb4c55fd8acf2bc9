// Package resultcache is a disk-backed content-addressed store for sweep
// results. Entries are keyed on sweep.Job.Hash — a stable SHA-256 over the
// job's canonical encoding (bench, mode, seed and the fully-normalized
// simulator configuration) — so an identical cell is never simulated twice
// across figure regenerations, seed-fan extensions or grid workers. All
// numeric result fields are integers, so a cached result reproduces sink
// output byte-identically to a fresh simulation.
//
// On-disk layout (versioned; Open refuses a directory written by a
// different format version):
//
//	<dir>/VERSION        # format version, one decimal line
//	<dir>/<kk>/<key>.json  # envelope{version, key, res}; kk = key[:2]
//
// Writes are atomic: entries are staged in a temp file in <dir> and
// renamed into place, so a crashed or concurrent writer can never publish
// a torn entry (concurrent Put of the same key is idempotent — both write
// identical bytes).
package resultcache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// FormatVersion is the on-disk format version. Bump it when the envelope or
// the result encoding changes incompatibly.
const FormatVersion = 1

// Cache is a content-addressed result store rooted at one directory. It is
// safe for concurrent use by multiple goroutines and multiple processes
// sharing the directory.
type Cache struct {
	dir string

	// readFault, when non-nil, transforms raw entry bytes right after they
	// are read from disk — a test seam for fault injection (see
	// internal/chaos), so corruption-tolerance tests exercise the same
	// verification path a flipped disk bit would.
	readFault func([]byte) []byte

	// hits/misses/puts/errs count Get/Put outcomes (errs counts corrupt or
	// unreadable entries and failed writes, which degrade to misses rather
	// than failing the sweep).
	hits, misses, puts, errs atomic.Uint64
}

// SetReadFault installs f as a read-time corruption hook (test seam; nil
// clears it). Set before concurrent use.
func (c *Cache) SetReadFault(f func([]byte) []byte) { c.readFault = f }

// Stats is a snapshot of the cache counters. Errors counts corrupt or
// unreadable entries and failed writes, each degraded to a miss.
type Stats struct {
	Hits, Misses, Puts, Errors uint64
}

// envelope is the on-disk entry format. Sum is a CRC32-IEEE checksum
// (lowercase hex) over Res, the result's JSON encoding as stored: a flipped
// bit inside a numeric field still parses as valid JSON, and without the
// checksum it would silently poison every sweep that hits the entry.
// Entries written before the field (empty Sum) are accepted unverified, so
// FormatVersion stays 1.
type envelope struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum,omitempty"`
	Res     json.RawMessage `json:"res"`
}

// resSum is the checksum stored in envelope.Sum.
func resSum(b []byte) string {
	return strconv.FormatUint(uint64(crc32.ChecksumIEEE(b)), 16)
}

// Open creates (or reuses) a cache directory, enforcing the format version.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	vpath := filepath.Join(dir, "VERSION")
	b, err := os.ReadFile(vpath)
	switch {
	case err == nil:
		v, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil || v != FormatVersion {
			return nil, fmt.Errorf("resultcache: %s holds format %q, this binary writes format %d",
				dir, strings.TrimSpace(string(b)), FormatVersion)
		}
	case os.IsNotExist(err):
		if werr := writeAtomic(dir, vpath, []byte(strconv.Itoa(FormatVersion)+"\n")); werr != nil {
			return nil, fmt.Errorf("resultcache: %w", werr)
		}
	default:
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// path maps a key to its entry file, sharded on the first two hex digits so
// a full standard sweep never piles thousands of files into one directory.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get returns the cached result for key, reporting whether it was present.
// A corrupt or mismatched entry is surfaced as an error; callers typically
// treat that as a miss and re-simulate.
func (c *Cache) Get(key string) (*core.Results, bool, error) {
	if len(key) < 2 {
		return nil, false, fmt.Errorf("resultcache: malformed key %q", key)
	}
	b, err := os.ReadFile(c.path(key))
	if os.IsNotExist(err) {
		c.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		c.errs.Add(1)
		return nil, false, fmt.Errorf("resultcache: %w", err)
	}
	if c.readFault != nil {
		b = c.readFault(b)
	}
	res, ok := decodeCanonical(key, b)
	if !ok {
		if res, err = decodeEntry(key, b); err != nil {
			c.errs.Add(1)
			return nil, false, err
		}
	}
	c.hits.Add(1)
	return res, true, nil
}

// decodeEntry decodes an entry through encoding/json, judging any form.
// The result stays raw until its stored bytes have passed the checksum, so
// it is decoded once and never re-encoded.
func decodeEntry(key string, b []byte) (*core.Results, error) {
	var e envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("resultcache: corrupt entry %s: %w", key, err)
	}
	if e.Version != FormatVersion || e.Key != key || len(e.Res) == 0 || string(e.Res) == "null" {
		return nil, fmt.Errorf("resultcache: entry %s does not match its address (version %d, key %q)",
			key, e.Version, e.Key)
	}
	if e.Sum != "" && resSum(e.Res) != e.Sum {
		return nil, fmt.Errorf("resultcache: entry %s failed its checksum (bit rot or damaged write)", key)
	}
	res := new(core.Results)
	if err := json.Unmarshal(e.Res, res); err != nil {
		return nil, fmt.Errorf("resultcache: corrupt entry %s: %w", key, err)
	}
	return res, nil
}

// decodeCanonical decodes an entry in the exact form Put writes, without
// reflection, when it matches its address and its checksum. It reports
// false for anything else, which Get hands to decodeEntry, so what Get
// accepts, refuses and returns never depends on this path.
func decodeCanonical(key string, b []byte) (*core.Results, bool) {
	s := sweep.NewScan(b)
	version := s.Lit(`{"version":`).Int()
	k := s.Lit(`,"key":`).Str()
	sum := ""
	if s.Opt(`,"sum":`) {
		sum = s.Str()
	}
	raw, ok := bytes.CutSuffix(s.Lit(`,"res":`).Rest(), []byte("}\n"))
	if !ok || version != FormatVersion || k != key || sum != "" && resSum(raw) != sum {
		return nil, false
	}
	rs := sweep.NewScan(raw)
	res := rs.Results()
	return res, res != nil && rs.Done()
}

// Put stores res under key atomically. Only successful results are worth
// storing; callers must not cache errors (a failure is not content).
func (c *Cache) Put(key string, res *core.Results) error {
	if len(key) < 2 {
		return fmt.Errorf("resultcache: malformed key %q", key)
	}
	if res == nil {
		return fmt.Errorf("resultcache: refusing to store nil result under %s", key)
	}
	// The envelope json.NewEncoder writes, followed by its newline.
	enc := sweep.AppendResults(make([]byte, 0, 4<<10), res)
	b := strconv.AppendInt(append(make([]byte, 0, len(enc)+len(key)+64), `{"version":`...), FormatVersion, 10)
	b = sweep.AppendString(append(b, `,"key":`...), key)
	b = sweep.AppendString(append(b, `,"sum":`...), resSum(enc))
	b = append(append(append(b, `,"res":`...), enc...), "}\n"...)
	dst := c.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := writeAtomic(c.dir, dst, b); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	c.puts.Add(1)
	return nil
}

// writeAtomic publishes data at dst via a temp file in dir and a rename
// (atomic within one filesystem).
func writeAtomic(dir, dst string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), dst)
}

// PruneStats reports one Prune pass.
type PruneStats struct {
	// Kept / KeptBytes count the entries surviving the pass.
	Kept      int
	KeptBytes int64
	// Evicted / EvictedBytes count the entries removed.
	Evicted      int
	EvictedBytes int64
}

// pruneEntry is one cache file considered for eviction.
type pruneEntry struct {
	path  string
	size  int64
	mtime time.Time
}

// Prune evicts entries oldest-first (by modification time; a cache hit does
// not refresh it, so age means "time since simulated") until the entries'
// total size fits maxBytes. The VERSION marker is never removed. Concurrent
// readers are safe: eviction is a plain unlink, and a reader that loses the
// race simply misses and re-simulates. It is the size-based GC behind
// `safespec-bench -cache-gc`.
func (c *Cache) Prune(maxBytes int64) (PruneStats, error) {
	var st PruneStats
	var entries []pruneEntry
	shards, err := os.ReadDir(c.dir)
	if err != nil {
		return st, fmt.Errorf("resultcache: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.dir, sh.Name()))
		if err != nil {
			continue // shard vanished under us: nothing to evict there
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			entries = append(entries, pruneEntry{
				path:  filepath.Join(c.dir, sh.Name(), f.Name()),
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	// Oldest first; ties break on path so a pass is deterministic.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	var total int64
	for _, e := range entries {
		total += e.size
	}
	for _, e := range entries {
		if total <= maxBytes {
			st.Kept++
			st.KeptBytes += e.size
			continue
		}
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			return st, fmt.Errorf("resultcache: prune %s: %w", e.path, err)
		}
		total -= e.size
		st.Evicted++
		st.EvictedBytes += e.size
	}
	return st, nil
}

// CacheStats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Puts:   c.puts.Load(),
		Errors: c.errs.Load(),
	}
}

// String renders the counters for the safespec-bench progress line; a warm
// run shows misses=0 (no cell was simulated).
func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("cache %s: hits=%d misses=%d stored=%d errors=%d",
		c.dir, s.Hits, s.Misses, s.Puts, s.Errors)
}

// Executor serves jobs from the cache and delegates misses to an inner
// executor (local simulation or the grid coordinator), storing fresh
// successful results on the way back. It implements sweep.Executor, so a
// cached sweep plugs into sweep.Run without any consumer changes.
type Executor struct {
	cache *Cache
	inner sweep.Executor
}

// NewExecutor wraps inner (nil selects sweep.LocalExecutor) with the cache.
func NewExecutor(c *Cache, inner sweep.Executor) *Executor {
	if inner == nil {
		inner = sweep.LocalExecutor{}
	}
	return &Executor{cache: c, inner: inner}
}

// Execute resolves one job: cache hit, or inner execution plus a store.
// Cache failures (corrupt entry, failed write) degrade to plain
// execution — a broken cache must never fail a sweep whose
// simulations succeed — and are visible in the Errors counter.
func (e *Executor) Execute(ctx context.Context, index int, j sweep.Job) (*core.Results, error) {
	key := j.Hash()
	if res, ok, _ := e.cache.Get(key); ok {
		return res, nil
	}
	res, err := e.inner.Execute(ctx, index, j)
	if err == nil && res != nil {
		if perr := e.cache.Put(key, res); perr != nil {
			e.cache.errs.Add(1)
		}
	}
	return res, err
}

// ExecuteTimed is Execute with a span breakdown: lookup and store time are
// attributed to the cache span, and a miss merges the inner executor's own
// spans (a hit has no simulate span at all).
func (e *Executor) ExecuteTimed(ctx context.Context, index int, j sweep.Job) (*core.Results, *sweep.Timing, error) {
	t := &sweep.Timing{}
	key := j.Hash()
	start := time.Now()
	res, ok, _ := e.cache.Get(key)
	t.CacheNS += int64(time.Since(start))
	if ok {
		return res, t, nil
	}
	res, err := e.innerTimed(ctx, index, j, t)
	if err == nil && res != nil {
		start = time.Now()
		perr := e.cache.Put(key, res)
		t.CacheNS += int64(time.Since(start))
		if perr != nil {
			e.cache.errs.Add(1)
		}
	}
	return res, t, err
}

// innerTimed delegates to the inner executor, merging its spans into t when
// it can attribute them (otherwise all inner time becomes the simulate
// span, which is what a bare LocalExecutor would report anyway).
func (e *Executor) innerTimed(ctx context.Context, index int, j sweep.Job, t *sweep.Timing) (*core.Results, error) {
	if timed, ok := e.inner.(sweep.TimedExecutor); ok {
		res, inner, err := timed.ExecuteTimed(ctx, index, j)
		if inner != nil {
			t.Add(*inner)
		}
		return res, err
	}
	start := time.Now()
	res, err := e.inner.Execute(ctx, index, j)
	t.SimulateNS += int64(time.Since(start))
	return res, err
}
