package resultcache

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// wfcJob is one small WFC job of the Quick matrix, occupancy histograms
// included.
func wfcJob(tb testing.TB) sweep.Job {
	tb.Helper()
	spec := sweep.Quick()
	spec.Benchmarks = []string{"exchange2"}
	spec.Modes = []sweep.ModeSpec{{Name: "wfc", Config: core.WFC()}}
	spec.Instructions = 2_000
	jobs, err := spec.Jobs()
	if err != nil {
		tb.Fatal(err)
	}
	return jobs[0]
}

// simulated runs wfcJob and returns its key and result.
func simulated(tb testing.TB) (string, *core.Results) {
	tb.Helper()
	j := wfcJob(tb)
	res, err := sweep.LocalExecutor{}.Execute(context.Background(), 0, j)
	if err != nil {
		tb.Fatal(err)
	}
	if res.OccD == nil {
		tb.Fatal("test setup: the job records no occupancy histograms")
	}
	return j.Hash(), res
}

// TestPutRoundTripsExactly: an entry Put writes is byte-identical to the
// envelope earlier versions wrote (the result encoded inside the envelope,
// the checksum over its re-encoding), and Get returns an equal result.
func TestPutRoundTripsExactly(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := simulated(t)
	if err := cache.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cache.path(key))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(struct {
		Version int           `json:"version"`
		Key     string        `json:"key"`
		Sum     string        `json:"sum,omitempty"`
		Res     *core.Results `json:"res"`
	}{FormatVersion, key, strconv.FormatUint(uint64(crc32.ChecksumIEEE(enc)), 16), res}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("entry bytes moved:\n got %s\nwant %s", got, want.Bytes())
	}
	back, ok, err := cache.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", back, res)
	}
	if fast, ok := decodeCanonical(key, got); !ok || !reflect.DeepEqual(fast, res) {
		t.Fatalf("the direct decoder refused or changed an entry Put wrote (ok=%v)", ok)
	}
}

// TestFlippedDigitResimulated: one digit changed inside a stored result's
// histogram counts still parses, so only the checksum over the stored bytes
// can catch it. The cell must count as an error and be simulated again.
func TestFlippedDigitResimulated(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, res := simulated(t)
	if err := cache.Put(key, res); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cache.path(key))
	if err != nil {
		t.Fatal(err)
	}
	loc := regexp.MustCompile(`"counts":\[[0-9,]*[1-8]`).FindIndex(b)
	if loc == nil {
		t.Fatal("test setup: no histogram digit to flip")
	}
	b[loc[1]-1]++
	if err := os.WriteFile(cache.path(key), b, 0o644); err != nil {
		t.Fatal(err)
	}

	counting := &countingExecutor{inner: sweep.LocalExecutor{}}
	results, err := sweep.Run(context.Background(), []sweep.Job{wfcJob(t)}, sweep.Options{Executor: NewExecutor(cache, counting)})
	if err != nil {
		t.Fatal(err)
	}
	if counting.executed.Load() != 1 {
		t.Errorf("damaged entry served instead of simulated again")
	}
	if !reflect.DeepEqual(results[0].Res, res) {
		t.Errorf("re-simulated result differs from the original")
	}
	if s := cache.String(); !strings.Contains(s, "errors=1") {
		t.Errorf("damage not counted: %s", s)
	}
}

// BenchmarkCacheGet times one hit on an entry holding a simulated result
// with its occupancy histograms (about 3.5 KB of JSON), read and decoded
// through the result codec and, for comparison, through encoding/json.
func BenchmarkCacheGet(b *testing.B) {
	cache, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key, res := simulated(b)
	if err := cache.Put(key, res); err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, ok, err := cache.Get(key); !ok || err != nil {
				b.Fatalf("Get: ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			raw, err := os.ReadFile(cache.path(key))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := decodeEntry(key, raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
