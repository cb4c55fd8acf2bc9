package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"safespec/internal/bpred"
	"safespec/internal/cache"
	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/shadow"
	"safespec/internal/stats"
	"safespec/internal/tlb"
)

// The fleet's per-cell hops (the result cache, a worker's report, the
// coordinator's completion log and the client's result stream) each encode
// or decode one result. encoding/json reflects over the hundred-odd integer
// fields of a core.Results at every hop; this file writes the same bytes
// directly and parses that canonical form back without reflection. Input in
// any other form (whitespace, reordered or unknown keys, a number spelled
// another way) goes to encoding/json, so what is accepted, what is refused
// and what it decodes to never depend on the fast path. Jobs (jobjson.go)
// share the codec.

// A fieldCodec encodes or decodes the fields of a result or a job one at a
// time. The walk functions drive it through each struct's fields in
// declaration order, the order json.Marshal writes them, so one field list
// serves both directions.
type fieldCodec interface {
	counter(key string, p *uint64)
	integer(key string, p *int)
	optInteger(key string, p *int) // an omitempty int
	signed(key string, p *int64)
	small(key string, p *uint8)
	flag(key string, p *bool)
	text(key string, p *string)
	begin(key string) // a nested object field
	end()
	histogram(key string, p **stats.Histogram)
	threads(p *[]pipeline.ThreadStats)
}

func walkStats(c fieldCodec, s *pipeline.Stats) {
	c.counter("Cycles", &s.Cycles)
	c.counter("Committed", &s.Committed)
	c.counter("CommittedLoads", &s.CommittedLoads)
	c.counter("CommittedStores", &s.CommittedStores)
	c.counter("Dispatched", &s.Dispatched)
	c.counter("Squashed", &s.Squashed)
	c.counter("Mispredicts", &s.Mispredicts)
	c.counter("Faults", &s.Faults)
	c.counter("Traps", &s.Traps)
	c.counter("DReads", &s.DReads)
	c.counter("DReadL1Hits", &s.DReadL1Hits)
	c.counter("DReadShadowHits", &s.DReadShadowHits)
	c.counter("DReadMisses", &s.DReadMisses)
	c.counter("IFetches", &s.IFetches)
	c.counter("IFetchL1Hits", &s.IFetchL1Hits)
	c.counter("IFetchShadowHits", &s.IFetchShadowHits)
	c.counter("IFetchMisses", &s.IFetchMisses)
	c.counter("StoreForwards", &s.StoreForwards)
	walkCache(c, "L1I", &s.L1I)
	walkCache(c, "L1D", &s.L1D)
	walkCache(c, "L2", &s.L2)
	walkCache(c, "L3", &s.L3)
	walkTLB(c, "ITLB", &s.ITLB)
	walkTLB(c, "DTLB", &s.DTLB)
	walkBpred(c, "Bpred", &s.Bpred)
	walkShadow(c, "ShD", &s.ShD)
	walkShadow(c, "ShI", &s.ShI)
	walkShadow(c, "ShDTLB", &s.ShDTLB)
	walkShadow(c, "ShITLB", &s.ShITLB)
	c.histogram("OccD", &s.OccD)
	c.histogram("OccI", &s.OccI)
	c.histogram("OccDTLB", &s.OccDTLB)
	c.histogram("OccITLB", &s.OccITLB)
	c.threads(&s.PerThread)
}

func walkCache(c fieldCodec, key string, s *cache.Stats) {
	c.begin(key)
	c.counter("Hits", &s.Hits)
	c.counter("Misses", &s.Misses)
	c.counter("Fills", &s.Fills)
	c.counter("Evictions", &s.Evictions)
	c.counter("Flushes", &s.Flushes)
	c.end()
}

func walkTLB(c fieldCodec, key string, s *tlb.Stats) {
	c.begin(key)
	c.counter("Hits", &s.Hits)
	c.counter("Misses", &s.Misses)
	c.counter("Walks", &s.Walks)
	c.counter("Fills", &s.Fills)
	c.counter("Flushes", &s.Flushes)
	c.end()
}

func walkBpred(c fieldCodec, key string, s *bpred.Stats) {
	c.begin(key)
	c.counter("CondPredicted", &s.CondPredicted)
	c.counter("CondMispredicted", &s.CondMispredicted)
	c.counter("IndPredicted", &s.IndPredicted)
	c.counter("IndMispredicted", &s.IndMispredicted)
	c.counter("RetPredicted", &s.RetPredicted)
	c.counter("RetMispredicted", &s.RetMispredicted)
	c.end()
}

func walkShadow(c fieldCodec, key string, s *shadow.Stats) {
	c.begin(key)
	c.counter("Allocs", &s.Allocs)
	c.counter("Hits", &s.Hits)
	c.counter("Lookups", &s.Lookups)
	c.counter("Committed", &s.Committed)
	c.counter("Squashed", &s.Squashed)
	c.counter("DroppedFull", &s.DroppedFull)
	c.counter("BlockedCycles", &s.BlockedCycles)
	c.counter("Replaced", &s.Replaced)
	c.counter("Flushes", &s.Flushes)
	c.end()
}

// walkThread covers one element of PerThread; the caller opens and closes
// its object.
func walkThread(c fieldCodec, s *pipeline.ThreadStats) {
	c.counter("Committed", &s.Committed)
	c.counter("CommittedLoads", &s.CommittedLoads)
	c.counter("CommittedStores", &s.CommittedStores)
	c.counter("Dispatched", &s.Dispatched)
	c.counter("Squashed", &s.Squashed)
	c.counter("Mispredicts", &s.Mispredicts)
	c.counter("Faults", &s.Faults)
	c.counter("Traps", &s.Traps)
}

// encoder is the writing fieldCodec.
type encoder struct {
	b     []byte
	first bool // the next key opens its object: no comma before it
}

func (e *encoder) key(k string) {
	if !e.first {
		e.b = append(e.b, ',')
	}
	e.first = false
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':')
}

func (e *encoder) counter(k string, p *uint64) {
	e.key(k)
	e.b = strconv.AppendUint(e.b, *p, 10)
}

func (e *encoder) integer(k string, p *int) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, int64(*p), 10)
}

func (e *encoder) optInteger(k string, p *int) { e.optInt(k, int64(*p)) }

func (e *encoder) signed(k string, p *int64) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, *p, 10)
}

func (e *encoder) small(k string, p *uint8) {
	e.key(k)
	e.b = strconv.AppendUint(e.b, uint64(*p), 10)
}

func (e *encoder) flag(k string, p *bool) {
	e.key(k)
	e.b = strconv.AppendBool(e.b, *p)
}

func (e *encoder) text(k string, p *string) {
	e.key(k)
	e.b = AppendString(e.b, *p)
}

func (e *encoder) begin(k string) {
	e.key(k)
	e.b = append(e.b, '{')
	e.first = true
}

func (e *encoder) end() {
	e.b = append(e.b, '}')
	e.first = false
}

// optInt writes an omitempty integer field.
func (e *encoder) optInt(k string, v int64) {
	if v != 0 {
		e.key(k)
		e.b = strconv.AppendInt(e.b, v, 10)
	}
}

func (e *encoder) histogram(k string, p **stats.Histogram) {
	e.key(k)
	if *p == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = (*p).AppendJSON(e.b)
}

func (e *encoder) threads(p *[]pipeline.ThreadStats) {
	if len(*p) == 0 {
		return // omitempty
	}
	e.key("PerThread")
	e.b = append(e.b, '[')
	for i := range *p {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, '{')
		e.first = true
		walkThread(e, &(*p)[i])
		e.end()
	}
	e.b = append(e.b, ']')
}

// AppendResults appends r's JSON encoding to b, byte for byte as
// json.Marshal(r) writes it.
func AppendResults(b []byte, r *core.Results) []byte {
	if r == nil {
		return append(b, "null"...)
	}
	e := encoder{b: append(b, '{'), first: true}
	if r.Stats != nil {
		walkStats(&e, r.Stats)
	}
	e.key("Mode")
	e.b = strconv.AppendUint(e.b, uint64(r.Mode), 10)
	return append(e.b, '}')
}

// AppendWireResult appends w's JSON encoding to b, byte for byte as
// json.Marshal(w) writes it.
func AppendWireResult(b []byte, w WireResult) []byte {
	b = strconv.AppendInt(append(b, `{"index":`...), int64(w.Index), 10)
	if w.Res != nil {
		b = AppendResults(append(b, `,"res":`...), w.Res)
	}
	if w.Err != "" {
		b = AppendString(append(b, `,"err":`...), w.Err)
	}
	e := encoder{b: b}
	e.optInt("wall_ns", w.WallNS)
	if t := w.Timing; t != nil {
		e.b = append(e.b, `,"timing":{`...)
		e.first = true
		e.optInt("queue_ns", t.QueueNS)
		e.optInt("cache_ns", t.CacheNS)
		e.optInt("simulate_ns", t.SimulateNS)
		e.optInt("report_ns", t.ReportNS)
		e.end()
	}
	return append(e.b, '}')
}

// MarshalWireResult returns w's encoding (AppendWireResult) in a slice of
// its own length, for a caller that keeps it.
func MarshalWireResult(w WireResult) []byte {
	b := AppendWireResult(make([]byte, 0, 4<<10), w)
	return append(make([]byte, 0, len(b)), b...)
}

// AppendString appends s as a JSON string, byte for byte as json.Marshal
// writes it. A string holding anything json.Marshal escapes takes
// json.Marshal's own path.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// A Scan reads JSON in the canonical form json.Marshal writes: no
// whitespace, every key in declaration order, integers without a leading
// zero, fraction or exponent. Reads are sticky: after the first mismatch
// every read returns a zero value and Done reports false, so a caller reads
// a whole value, checks Done once, and hands input that is not canonical to
// encoding/json.
type Scan struct {
	b     []byte
	i     int
	bad   bool
	first bool // the next key opens its object: no comma before it
}

// NewScan returns a Scan reading b.
func NewScan(b []byte) Scan { return Scan{b: b} }

// Done reports whether every read matched and all of the input was read.
func (s *Scan) Done() bool { return !s.bad && s.i == len(s.b) }

// Rest returns the unread input, or nil after a mismatch.
func (s *Scan) Rest() []byte {
	if s.bad {
		return nil
	}
	return s.b[s.i:]
}

// Opt reads the literal l if it comes next, reporting whether it did.
func (s *Scan) Opt(l string) bool {
	if s.bad || len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// Lit reads the literal l, which must come next.
func (s *Scan) Lit(l string) *Scan {
	if !s.Opt(l) {
		s.bad = true
	}
	return s
}

// optKey reads the object key k (after a comma unless it opens the object)
// if it comes next, reporting whether it did.
func (s *Scan) optKey(k string) bool {
	if s.bad {
		return false
	}
	i := s.i
	if !s.first {
		if i >= len(s.b) || s.b[i] != ',' {
			return false
		}
		i++
	}
	if len(s.b)-i < len(k)+3 || s.b[i] != '"' || string(s.b[i+1:i+1+len(k)]) != k ||
		s.b[i+1+len(k)] != '"' || s.b[i+2+len(k)] != ':' {
		return false
	}
	s.i = i + len(k) + 3
	s.first = false
	return true
}

// optInt reads an omitempty integer field.
func (s *Scan) optInt(k string, p *int64) {
	if s.optKey(k) {
		*p = s.Int64()
	}
}

func (s *Scan) key(k string) {
	if !s.optKey(k) {
		s.bad = true
	}
}

func (s *Scan) uint64() uint64 {
	if s.bad {
		return 0
	}
	b, i := s.b, s.i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		if v > math.MaxUint64/10 || v == math.MaxUint64/10 && d > math.MaxUint64%10 {
			s.bad = true // overflow
			return 0
		}
		v = v*10 + d
	}
	if i == s.i || b[s.i] == '0' && i > s.i+1 {
		s.bad = true // no digits, or a leading zero
		return 0
	}
	s.i = i
	return v
}

// Int64 reads a signed 64-bit integer.
func (s *Scan) Int64() int64 {
	neg := s.Opt("-")
	u := s.uint64()
	switch {
	case s.bad:
	case neg && u != 0 && u <= 1<<63:
		return -int64(u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	s.bad = true // out of range, or "-0"
	return 0
}

// Int reads a signed integer.
func (s *Scan) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.bad = true
		return 0
	}
	return int(v)
}

// Bool reads true or false.
func (s *Scan) Bool() bool {
	if s.Opt("true") {
		return true
	}
	s.Lit("false")
	return false
}

// Str reads a string. A string with an escape or a byte outside printable
// ASCII is unquoted by encoding/json, which knows every escape and how it
// treats invalid UTF-8.
func (s *Scan) Str() string {
	if !s.Opt(`"`) {
		s.bad = true
		return ""
	}
	start := s.i
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return string(s.b[start:i])
		case c == '\\' || c < 0x20 || c >= 0x80:
			return s.slowStr(start - 1)
		}
	}
	s.bad = true
	return ""
}

// slowStr reads the string token that opens at b[open].
func (s *Scan) slowStr(open int) string {
	i := open + 1
	for ; i < len(s.b) && s.b[i] != '"'; i++ {
		if s.b[i] == '\\' {
			i++
		}
	}
	var str string
	if i >= len(s.b) || json.Unmarshal(s.b[open:i+1], &str) != nil {
		s.bad = true
		return ""
	}
	s.i = i + 1
	return str
}

func (s *Scan) uint8() uint8 {
	v := s.uint64()
	if v > math.MaxUint8 {
		s.bad = true
		return 0
	}
	return uint8(v)
}

func (s *Scan) object() {
	s.Lit("{")
	s.first = true
}

func (s *Scan) counter(k string, p *uint64) {
	s.key(k)
	*p = s.uint64()
}

func (s *Scan) integer(k string, p *int) {
	s.key(k)
	*p = s.Int()
}

func (s *Scan) optInteger(k string, p *int) {
	if s.optKey(k) {
		*p = s.Int()
	}
}

func (s *Scan) signed(k string, p *int64) {
	s.key(k)
	*p = s.Int64()
}

func (s *Scan) small(k string, p *uint8) {
	s.key(k)
	*p = s.uint8()
}

func (s *Scan) flag(k string, p *bool) {
	s.key(k)
	*p = s.Bool()
}

func (s *Scan) text(k string, p *string) {
	s.key(k)
	*p = s.Str()
}

func (s *Scan) begin(k string) {
	s.key(k)
	s.object()
}

func (s *Scan) end() {
	s.Lit("}")
	s.first = false
}

func (s *Scan) histogram(k string, p **stats.Histogram) {
	s.key(k)
	if s.bad || s.Opt("null") {
		*p = nil
		return
	}
	// The canonical form holds no ']' before its own "]}".
	n := bytes.IndexByte(s.b[s.i:], ']') + 2
	h := new(stats.Histogram)
	if n < 2 || s.i+n > len(s.b) || !h.DecodeCanonical(s.b[s.i:s.i+n]) {
		s.bad = true
		return
	}
	s.i += n
	*p = h
}

func (s *Scan) threads(p *[]pipeline.ThreadStats) {
	if !s.optKey("PerThread") {
		return
	}
	if s.Opt("null") {
		*p = nil
		return
	}
	s.Lit("[")
	ts := []pipeline.ThreadStats{}
	for !s.bad && !s.Opt("]") {
		if len(ts) > 0 {
			s.Lit(",")
		}
		ts = append(ts, pipeline.ThreadStats{})
		s.object()
		walkThread(s, &ts[len(ts)-1])
		s.end()
	}
	*p = ts
}

// Results reads an encoded core.Results or null.
func (s *Scan) Results() *core.Results {
	if s.bad || s.Opt("null") {
		return nil
	}
	r := new(core.Results)
	s.object()
	if !s.optKey("Mode") {
		r.Stats = new(pipeline.Stats)
		walkStats(s, r.Stats)
		s.key("Mode")
	}
	r.Mode = core.Mode(s.uint8())
	s.end()
	return r
}

// WireResult reads an encoded WireResult.
func (s *Scan) WireResult() WireResult {
	var w WireResult
	s.object()
	s.key("index")
	w.Index = s.Int()
	if s.optKey("res") {
		w.Res = s.Results()
	}
	if s.optKey("err") {
		w.Err = s.Str()
	}
	s.optInt("wall_ns", &w.WallNS)
	if s.optKey("timing") && !s.Opt("null") {
		t := new(Timing)
		s.object()
		s.optInt("queue_ns", &t.QueueNS)
		s.optInt("cache_ns", &t.CacheNS)
		s.optInt("simulate_ns", &t.SimulateNS)
		s.optInt("report_ns", &t.ReportNS)
		s.end()
		w.Timing = t
	}
	s.end()
	return w
}

// WireResults reads an array of encoded WireResults or null.
func (s *Scan) WireResults() []WireResult { return scanArray(s, s.WireResult) }

// scanArray reads an array of values that elem reads, or null.
func scanArray[T any](s *Scan, elem func() T) []T {
	if s.Opt("null") {
		return nil
	}
	s.Lit("[")
	vs := []T{}
	for !s.bad && !s.Opt("]") {
		if len(vs) > 0 {
			s.Lit(",")
		}
		vs = append(vs, elem())
	}
	return vs
}

// DecodeWireResult decodes one encoded result: the canonical form directly,
// anything else through json.Unmarshal.
func DecodeWireResult(b []byte) (WireResult, error) {
	s := NewScan(b)
	if w := s.WireResult(); s.Done() {
		return w, nil
	}
	var w WireResult
	err := json.Unmarshal(b, &w)
	return w, err
}
