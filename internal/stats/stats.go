// Package stats provides the counters, histograms and summary statistics
// used by the SafeSpec evaluation: occupancy histograms with high-percentile
// extraction (the paper sizes shadow structures at the 99.99th percentile),
// rates, and geometric means (used for the Figure 11 IPC summary).
package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Histogram counts integer-valued samples in [0, max]. It is used to record
// per-cycle occupancy of the shadow structures.
type Histogram struct {
	counts []uint64
	n      uint64
	sum    uint64
	max    int
}

// NewHistogram returns a histogram accepting samples in [0, max]. Samples
// above max are clamped to max.
func NewHistogram(max int) *Histogram {
	if max < 0 {
		max = 0
	}
	return &Histogram{counts: make([]uint64, max+1)}
}

// AddN records n identical samples (used when the simulator fast-forwards
// over idle cycles: the occupancy was constant for all of them).
func (h *Histogram) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v] += n
	h.n += n
	h.sum += uint64(v) * n
	if v > h.max {
		h.max = v
	}
}

// Add records one sample.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v]++
	h.n++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// Merge folds o's samples into h (used to aggregate per-thread occupancy
// histograms into a core-wide view). Values beyond h's range clamp to its
// top bucket, like Add.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for v, n := range o.counts {
		if n != 0 {
			h.AddN(v, n)
		}
	}
}

// N returns the number of samples recorded.
func (h *Histogram) N() uint64 { return h.n }

// Max returns the largest sample recorded.
func (h *Histogram) Max() int { return h.max }

// Mean returns the arithmetic mean of the samples (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Percentile returns the smallest value v such that at least p (0 < p <= 1)
// of the samples are <= v. This is the quantity plotted in Figures 6-9 of
// the paper with p = 0.9999.
func (h *Histogram) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	if p >= 1 {
		return h.max
	}
	if p < 0 {
		p = 0
	}
	need := uint64(math.Ceil(p * float64(h.n)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for v, c := range h.counts {
		cum += c
		if cum >= need {
			return v
		}
	}
	return h.max
}

// Count returns the number of samples equal to v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d mean=%.2f p99.99=%d max=%d}",
		h.n, h.Mean(), h.Percentile(0.9999), h.max)
}

// Rate returns num/den, or 0 when den == 0.
func Rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
// It returns 0 if no positive entries exist.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs (0 if empty). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// histogramJSON is the wire form of a Histogram: the full counts slice
// (length = capacity+1), from which every derived field is recomputed on
// decode. Keeping only counts makes the encoding canonical — two equal
// histograms always serialize to identical bytes.
type histogramJSON struct {
	Counts []uint64 `json:"counts"`
}

// MarshalJSON encodes the histogram for the sweep result cache and the grid
// wire protocol, as AppendJSON writes it.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return h.AppendJSON(make([]byte, 0, len(`{"counts":[]}`)+4*len(h.counts))), nil
}

// AppendJSON appends the histogram's canonical encoding to b. The bytes
// equal json.Marshal(histogramJSON{Counts: counts}): the counts are written
// with strconv rather than through reflection, since they are more than
// half of an encoded result.
func (h *Histogram) AppendJSON(b []byte) []byte {
	if h.counts == nil {
		return append(b, `{"counts":null}`...)
	}
	b = append(slices.Grow(b, len(`{"counts":[]}`)+2*len(h.counts)), `{"counts":[`...)
	for i, c := range h.counts {
		if i > 0 {
			b = append(b, ',')
		}
		if c < 10 { // see parseCanonicalCounts
			b = append(b, byte('0'+c))
		} else {
			b = strconv.AppendUint(b, c, 10)
		}
	}
	return append(b, "]}"...)
}

// UnmarshalJSON decodes a histogram, recomputing the sample count, sum and
// maximum from the counts. The round trip is exact: all fields are integers.
// The canonical form AppendJSON writes is parsed directly; any other input
// goes through json.Unmarshal, so what is accepted and what it decodes to do
// not depend on the fast path.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	if h.DecodeCanonical(b) {
		return nil
	}
	var w histogramJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	h.setCounts(w.Counts)
	return nil
}

// DecodeCanonical sets h from b when b is the canonical encoding
// `{"counts":[c0,c1,...]}` that AppendJSON writes for a histogram with
// counts, and reports whether it was; h is unchanged when it reports false.
// It decodes b exactly as UnmarshalJSON does.
func (h *Histogram) DecodeCanonical(b []byte) bool {
	counts, ok := parseCanonicalCounts(b)
	if ok {
		h.setCounts(counts)
	}
	return ok
}

// setCounts installs counts and recomputes the derived fields.
func (h *Histogram) setCounts(counts []uint64) {
	if len(counts) == 0 {
		counts = make([]uint64, 1)
	}
	h.counts = counts
	h.n, h.sum, h.max = 0, 0, 0
	for v, c := range h.counts {
		if c == 0 {
			continue
		}
		h.n += c
		h.sum += uint64(v) * c
		h.max = v
	}
}

// parseCanonicalCounts parses exactly `{"counts":[c0,c1,...]}` with each
// count a decimal uint64 without sign, leading zero or exponent, and no
// whitespace. It reports false for anything else, including overflow.
func parseCanonicalCounts(b []byte) ([]uint64, bool) {
	const head, tail = `{"counts":[`, "]}"
	if len(b) < len(head)+len(tail) || string(b[:len(head)]) != head || string(b[len(b)-len(tail):]) != tail {
		return nil, false
	}
	body := b[len(head) : len(b)-len(tail)]
	counts := make([]uint64, 0, bytes.Count(body, []byte{','})+1)
	if len(body) == 0 {
		return counts, true
	}
	for {
		if len(body) > 1 && body[1] == ',' && body[0]-'0' <= 9 {
			// One-digit counts take a short path: they are 97.5% of the
			// counts in the fleet-replay benchmark's results (97.0% are
			// zero), and the short paths here and in AppendJSON cut
			// BenchmarkResultCodec's encode by about 40% and its decode
			// by about 20%.
			counts = append(counts, uint64(body[0]-'0'))
			body = body[2:]
			continue
		}
		i := 0
		for i < len(body) && body[i]-'0' <= 9 {
			i++
		}
		digits := body[:i]
		if i == 0 || (i > 1 && digits[0] == '0') {
			return nil, false
		}
		var c uint64
		if i < 20 { // at most 19 digits cannot overflow
			for _, d := range digits {
				c = c*10 + uint64(d-'0')
			}
		} else {
			var err error
			if c, err = strconv.ParseUint(string(digits), 10, 64); err != nil {
				return nil, false
			}
		}
		counts = append(counts, c)
		if i == len(body) {
			return counts, true
		}
		if body[i] != ',' {
			return nil, false
		}
		body = body[i+1:]
	}
}

// tTable95 holds two-sided 95% Student's t critical values for 1..30 degrees
// of freedom; larger samples use the normal approximation 1.96.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean of xs and the half-width of its 95%
// confidence interval (Student's t on the sample standard deviation). The
// half-width is 0 for fewer than two samples, where no spread is estimable;
// it is the quantity behind the seed-fan error bars on the figures.
func MeanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	t := 1.96
	if df := n - 1; df <= len(tTable95) {
		t = tTable95[df-1]
	}
	return mean, t * sd / math.Sqrt(float64(n))
}
