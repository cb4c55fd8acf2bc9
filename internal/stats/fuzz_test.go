package stats

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzHistogramJSON holds the direct histogram codec to the reflection
// codec it replaced: for any bytes, UnmarshalJSON accepts exactly what
// json.Unmarshal into histogramJSON accepts and decodes the same counts,
// and MarshalJSON writes what json.Marshal of histogramJSON writes. The seed
// corpus (testdata/fuzz/FuzzHistogramJSON) covers the canonical form,
// whitespace, null, a differently cased key, a leading zero, a negative, a
// float, an overflowing count and an unknown key.
func FuzzHistogramJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var h Histogram
		err := h.UnmarshalJSON(b)
		var w histogramJSON
		werr := json.Unmarshal(b, &w)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: UnmarshalJSON err %v, json.Unmarshal err %v", b, err, werr)
		}
		if err != nil {
			return
		}
		want := w.Counts
		if len(want) == 0 {
			want = make([]uint64, 1)
		}
		if !slices.Equal(h.counts, want) {
			t.Fatalf("%q: counts %v, json.Unmarshal decodes %v", b, h.counts, want)
		}
		got, err := h.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(histogramJSON{Counts: h.counts})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("MarshalJSON %s, json.Marshal %s", got, ref)
		}
	})
}
