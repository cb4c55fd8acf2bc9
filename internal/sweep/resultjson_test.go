package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/stats"
)

// fillCounters sets every uint64 reachable from v through exported struct
// fields and slice elements to a distinct value, spread over the whole
// uint64 range (an odd multiplier is a bijection mod 2^64). Pointers, the
// histograms among them, are left alone.
func fillCounters(v reflect.Value, n *uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		*n++
		v.SetUint(*n * 0x9E3779B97F4A7C15)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillCounters(v.Field(i), n)
			}
		}
	case reflect.Slice:
		for i := range v.Len() {
			fillCounters(v.Index(i), n)
		}
	}
}

func testHistogram(max int, samples ...int) *stats.Histogram {
	h := stats.NewHistogram(max)
	for _, v := range samples {
		h.AddN(v, uint64(v)+1)
	}
	return h
}

// codecCases returns results that set every field the codec writes, with
// histograms nil and non-nil and PerThread absent and present.
func codecCases() []WireResult {
	var out []WireResult
	for _, hists := range []bool{false, true} {
		for _, threads := range []int{0, 2} {
			st := &pipeline.Stats{}
			if threads > 0 {
				st.PerThread = make([]pipeline.ThreadStats, threads)
			}
			var n uint64
			fillCounters(reflect.ValueOf(st).Elem(), &n)
			if hists {
				st.OccD, st.OccI = testHistogram(8, 0, 3, 8), testHistogram(0)
				st.OccDTLB, st.OccITLB = testHistogram(300, 299), testHistogram(2, 1)
			}
			out = append(out, WireResult{Index: 7, Res: &core.Results{Stats: st, Mode: core.ModeWFC},
				WallNS: 1 << 40, Timing: &Timing{QueueNS: 1, SimulateNS: -3}})
		}
	}
	return append(out,
		WireResult{Index: -1, Res: &core.Results{Mode: core.ModeWFB}},
		WireResult{Index: 2, Err: `say "<a> & <b>" \ é` + "\n\t", Timing: &Timing{}},
		WireResult{})
}

// TestResultCodecMatchesJSON guards the codec's field lists against drift:
// every field of a core.Results holds a distinct value, the encoder must
// write exactly what json.Marshal writes, and the decoder must read it back
// to an equal value without falling back to encoding/json. A field added to
// pipeline.Stats or one of its nested structs and not to the walk functions
// fails here.
func TestResultCodecMatchesJSON(t *testing.T) {
	for i, w := range codecCases() {
		checkCodec(t, w)
		if t.Failed() {
			t.Fatalf("case %d", i)
		}
	}
}

// checkCodec requires w to encode as json.Marshal does and to decode on the
// fast path to a value equal to w.
func checkCodec(t *testing.T, w WireResult) {
	t.Helper()
	want, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendWireResult(nil, w)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding moved:\n got %s\nwant %s", got, want)
	}
	if m := MarshalWireResult(w); !bytes.Equal(m, want) || cap(m) != len(m) {
		t.Fatalf("MarshalWireResult wrote %d bytes of %d capacity: %s", len(m), cap(m), m)
	}
	if w.Res != nil {
		if got, want := AppendResults(nil, w.Res), mustMarshal(t, w.Res); !bytes.Equal(got, want) {
			t.Fatalf("results encoding moved:\n got %s\nwant %s", got, want)
		}
	}
	s := NewScan(got)
	back := s.WireResult()
	if !s.Done() {
		t.Fatalf("fast path refused its own encoding %s", got)
	}
	if !reflect.DeepEqual(back, w) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", back, w)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzWireResultJSON holds the direct result decoder to encoding/json: for
// any bytes, DecodeWireResult accepts exactly what json.Unmarshal accepts
// and decodes the same value, and whatever the fast path alone accepts,
// json.Unmarshal accepts and decodes alike. A decoded value encodes as
// json.Marshal writes it. The seed corpus (testdata/fuzz/FuzzWireResultJSON)
// covers the canonical form with histograms, timing and PerThread,
// whitespace, reordered keys, an older peer's "job" key, "res":null, an
// err string holding escapes, null histograms, leading zeros, signs,
// exponents and a uint64 overflow.
func FuzzWireResultJSON(f *testing.F) {
	for _, w := range codecCases() {
		f.Add(AppendWireResult(nil, w))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var want WireResult
		werr := json.Unmarshal(b, &want)
		got, err := DecodeWireResult(b)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: DecodeWireResult err %v, json.Unmarshal err %v", b, err, werr)
		}
		s := NewScan(b)
		fast := s.WireResult()
		if s.Done() {
			if werr != nil {
				t.Fatalf("%q: fast path accepts what json.Unmarshal refuses: %v", b, werr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("%q: fast path decodes\n%+v\njson.Unmarshal decodes\n%+v", b, fast, want)
			}
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: DecodeWireResult decodes\n%+v\njson.Unmarshal decodes\n%+v", b, got, want)
		}
		if enc, ref := AppendWireResult(nil, got), mustMarshal(t, got); !bytes.Equal(enc, ref) {
			t.Fatalf("%q re-encodes as\n%s\njson.Marshal writes\n%s", b, enc, ref)
		}
	})
}
